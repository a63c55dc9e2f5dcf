"""Exact psi-class intersection numbers and their large-genus asymptotics."""

from __future__ import annotations

from .asym import (
    chat_poly,
    corollary1_deviation,
    ctilde_poly,
    f_bound,
    largest_series,
    lemma6_check,
    one_point_series,
    theorem2_product,
)
from .closed import (
    four_point,
    n_point,
    one_point_c,
    three_point,
    two_point_bdy,
    two_point_zograf,
)
from .dvv import (
    c_value,
    cache_load,
    cache_save,
    canonical_tuple,
    chat_value,
    default_cache,
    g_norm,
    gamma_norm,
    genus_of,
    intersection_number,
    u_value,
    x_of,
)
from .exact import Q, pi_value, rat_str
from .harness import (
    check_c4_inequalities,
    check_cross_formulas,
    check_lemma3,
    check_omega11_identity,
    counterexample_suite,
    partition_count,
    primitive_vectors,
    sweep_nesting,
    theta_sweep,
)
from .painleve import (
    painleve_coeff,
    painleve_from_intersections,
    theorem_a_constant,
    theorem_a_estimate,
)

__all__ = [
    "Q",
    "c_value",
    "cache_load",
    "cache_save",
    "canonical_tuple",
    "chat_poly",
    "chat_value",
    "check_c4_inequalities",
    "check_cross_formulas",
    "check_lemma3",
    "check_omega11_identity",
    "corollary1_deviation",
    "counterexample_suite",
    "ctilde_poly",
    "default_cache",
    "f_bound",
    "four_point",
    "g_norm",
    "gamma_norm",
    "genus_of",
    "intersection_number",
    "largest_series",
    "lemma6_check",
    "n_point",
    "one_point_c",
    "one_point_series",
    "painleve_coeff",
    "painleve_from_intersections",
    "partition_count",
    "pi_value",
    "primitive_vectors",
    "rat_str",
    "sweep_nesting",
    "theorem2_product",
    "theorem_a_constant",
    "theorem_a_estimate",
    "theta_sweep",
    "three_point",
    "two_point_bdy",
    "two_point_zograf",
    "u_value",
    "x_of",
]

__version__ = "0.1.0"
