"""Exact psi-class intersection numbers and their large-genus asymptotics.

The public names are resolved on first access (PEP 562) from the
submodule that defines them, so ``import psiclass`` loads none of the
submodules and each ``psiclass`` command pays only for the ones it runs.
"""

from __future__ import annotations

from importlib import import_module

# Public name -> the submodule that defines it.
_MODULE_OF = {
    "Q": "exact",
    "c_value": "dvv",
    "cache_load": "dvv",
    "cache_save": "dvv",
    "canonical_tuple": "dvv",
    "chat_poly": "asym",
    "chat_value": "dvv",
    "check_c4_inequalities": "harness",
    "check_cross_formulas": "harness",
    "check_lemma3": "harness",
    "check_omega11_identity": "harness",
    "corollary1_deviation": "asym",
    "counterexample_suite": "harness",
    "ctilde_poly": "asym",
    "default_cache": "dvv",
    "f_bound": "asym",
    "four_point": "closed",
    "g_norm": "dvv",
    "gamma_norm": "dvv",
    "genus_of": "dvv",
    "intersection_number": "dvv",
    "largest_series": "asym",
    "lemma6_check": "asym",
    "n_point": "closed",
    "one_point_c": "closed",
    "one_point_series": "asym",
    "painleve_coeff": "painleve",
    "painleve_from_intersections": "painleve",
    "partition_count": "partitions",
    "pi_value": "exact",
    "primitive_vectors": "partitions",
    "rat_str": "exact",
    "sweep_nesting": "harness",
    "theorem2_product": "asym",
    "theorem_a_constant": "painleve",
    "theorem_a_estimate": "painleve",
    "theta_sweep": "harness",
    "three_point": "closed",
    "two_point_bdy": "closed",
    "two_point_zograf": "closed",
    "u_value": "dvv",
    "x_of": "dvv",
}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
