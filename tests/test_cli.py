"""The command-line surface: parsing, formats, exit codes, cache flow,
start-up imports and the package names they rest on."""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys

import pytest

import psiclass
from psiclass import asym, dvv, exact, harness
from psiclass.cli import main
from psiclass.dvv import MemoCache, cache_load, n_value


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def fresh_memo(monkeypatch):
    """Start main from an empty process memo, as each CLI process does."""

    def reset():
        monkeypatch.setattr(dvv, "_DEFAULT_CACHE", MemoCache())

    reset()
    return reset


def _in_child(code: str) -> str:
    """stdout of ``code`` run by a new interpreter on this psiclass.

    The start-up checks need one, since this process has imported every
    module.
    """
    src = os.path.dirname(os.path.dirname(psiclass.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(argv) -> set:
    out = _in_child(
        "import json, sys\n"
        "from psiclass import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return set(json.loads(out.splitlines()[-1]))


def test_commands_import_only_what_they_run():
    loaded = _modules_after(["compute", "2,3"])
    assert {m for m in loaded if m.partition(".")[0] == "psiclass"} == {
        "psiclass",
        "psiclass.cli",
        "psiclass.dvv",
        "psiclass.exact",
    }
    assert "dataclasses" not in loaded
    loaded = _modules_after(["table", "--genus", "3"])
    assert {m for m in loaded if m.partition(".")[0] == "psiclass"} == {
        "psiclass",
        "psiclass.cli",
        "psiclass.dvv",
        "psiclass.exact",
        "psiclass.partitions",
    }
    assert "dataclasses" not in loaded
    assert "dataclasses" not in _modules_after(["asym", "fit", "--k", "1"])


PUBLIC = [
    "Q", "c_value", "cache_load", "cache_save", "canonical_tuple", "chat_poly",
    "chat_value", "check_c4_inequalities", "check_cross_formulas",
    "check_lemma3", "check_omega11_identity", "corollary1_deviation",
    "counterexample_suite", "ctilde_poly", "default_cache", "f_bound",
    "four_point", "g_norm", "gamma_norm", "genus_of", "intersection_number",
    "largest_series", "lemma6_check", "n_point", "one_point_c",
    "one_point_series", "painleve_coeff", "painleve_from_intersections",
    "partition_count", "pi_value", "primitive_vectors", "rat_str",
    "sweep_nesting", "theorem2_product", "theorem_a_constant",
    "theorem_a_estimate", "theta_sweep", "three_point", "two_point_bdy",
    "two_point_zograf", "u_value", "x_of",
]  # fmt: skip


def test_public_names_are_the_defining_modules_objects():
    assert psiclass.__all__ == PUBLIC
    # Q is the active arithmetic backend, which the benchmark reports.
    assert psiclass.Q is exact.Q
    for name in PUBLIC:
        if name != "Q":
            obj = getattr(psiclass, name)
            assert obj.__module__.startswith("psiclass."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        psiclass.no_such_name
    assert not hasattr(psiclass, "no_such_name")
    assert set(PUBLIC) <= set(dir(psiclass))


def test_star_import_binds_every_name_lazily():
    out = _in_child(
        "import json, sys\n"
        "import psiclass\n"
        "before = sorted(m for m in sys.modules if m.startswith('psiclass.'))\n"
        "from psiclass import *\n"
        "print(json.dumps([before, [n for n in psiclass.__all__ if n not in globals()]]))\n"
    )
    before, unbound = json.loads(out)
    assert before == []
    assert unbound == []


def test_compute_json(capsys):
    code, out = run(capsys, "compute", "2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1015/3888"
    assert payload["genus"] == 2
    assert payload["norm"] == "c"
    # CSV of a payload without rows: one key,value line per field.
    code, out = run(capsys, "compute", "2,3", "--format", "csv")
    assert code == 0
    lines = list(csv.reader(io.StringIO(out)))
    assert lines[0] == ["key", "value"]
    assert ["value", "1015/3888"] in lines and ["genus", "2"] in lines


def test_compute_norms(capsys):
    code, out = run(capsys, "compute", "4", "--norm", "int")
    assert code == 0
    assert json.loads(out)["value"] == "1/1152"
    code, out = run(capsys, "compute", "4,1", "--norm", "u")
    assert code == 0
    # u = (2*4+1)!! (2*1+1)!! * integral = 945 * 3 / 384
    assert json.loads(out)["value"] == "945/128"


def test_compute_rejects_garbage(capsys):
    code = main(["compute", "2,,3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_chat_even_x_is_domain_error(capsys):
    code = main(["compute", "0,2", "--norm", "chat"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_table_csv(capsys):
    code, out = run(capsys, "table", "--genus", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert rows[0]["d"] == "2,2,2"
    assert rows[-1]["d"] == "4"
    assert rows[-1]["c"] == "35/144"


def test_global_flags_before_subcommand(capsys):
    code, out = run(capsys, "--format", "csv", "table", "--genus", "2")
    assert code == 0
    assert out.splitlines()[0].startswith("d,")


def test_sweep_nesting(capsys):
    code, out = run(capsys, "sweep-nesting", "--gmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    rows = payload["rows"]
    assert rows[0]["min_vector"] == "4"
    assert rows[0]["max_vector"] == "2,2,2"
    assert rows[0]["count"] == rows[0]["partition_count"] == 3
    assert rows[0]["precision"] == 50


def test_sweep_nesting_memo_file_frozen(tmp_path, capsys, fresh_memo):
    """The genus-7 sweep's memo file, which CI pins too: the same bytes
    under the engine's pivot rule and the former one (a 0, else the largest
    entry)."""
    path = tmp_path / "memo.txt"
    code, _ = run(capsys, "sweep-nesting", "--gmax", "7", "--cache", str(path))
    assert code == 0
    assert path.read_text().startswith("dvvcache v2 entries=1083 ")
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "5bca07994483df24beb527fb0a374ef74ec2aa2fa8f56198963bb2803f68b5e7"
    )


def test_theta(capsys):
    code, out = run(capsys, "theta", "--x", "3", "--n", "1")
    assert code == 0
    assert json.loads(out)["theta"] == "35/144"
    # Classes with thousands of parts: C(1^n) = 1/6 at genus 1, and the
    # genus-2 maximum C(2,2,2) = 175/648 survives 996 added ones.
    for x, n, want in ((2001, 2001, "1/6"), (1001, 999, "175/648")):
        code, out = run(capsys, "theta", "--x", str(x), "--n", str(n))
        assert (code, json.loads(out)["theta"]) == (0, want)
    code = main(["theta", "--x", "4", "--n", "1"])
    assert code == 2
    assert "empty feasible set" in capsys.readouterr().err


def test_check_formulas_smoke(capsys):
    code, out = run(capsys, "check-formulas", "--budget", "smoke")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["rows"]) == 5


def test_check_formulas_mismatch_row(capsys, monkeypatch):
    monkeypatch.setattr(harness, "three_point", lambda d: exact.Q(-1))
    code, out = run(capsys, "check-formulas", "--budget", "smoke")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    row = next(r for r in payload["rows"] if r["suite"] == "three_point")
    assert row == {
        "suite": "three_point",
        "count": 1,
        "ok": False,
        "mismatch_d": "0,0,0",
        "mismatch_closed": "-1/1",
        "mismatch_recursion": "1/3",  # C(0,0,0) = <tau_0^3> / 3
    }
    assert all(r["ok"] for r in payload["rows"] if r is not row)


def test_check_identities(capsys):
    code, out = run(capsys, "check-identities", "--sample", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    checks = {row["check"] for row in payload["rows"]}
    assert checks == {"omega11", "c4", "lemma3"}


def test_counterexamples(capsys):
    code, out = run(capsys, "counterexamples")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_painleve(capsys):
    code, out = run(capsys, "painleve", "--gmax", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][2]["c"] == "98/1"
    assert payload["rows"][4]["bridge_ok"] is True


def test_asym_fit(capsys):
    code, out = run(capsys, "asym", "fit", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ctilde"]["monomials"] == [
        {"exponents": {}, "coefficient": "-17/18"}
    ]
    assert payload["chat"]["monomials"] == []
    code = main(["asym", "fit", "--k", "9"])
    assert code == 2


def test_asym_series(capsys, monkeypatch):
    code, out = run(capsys, "asym", "series", "--which", "largest", "--order", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][1]["coefficient"] == "-2/9"
    assert payload["rows"][2]["coefficient"] == "-238/2025"

    # An order past the cap is refused before any expansion is built.
    def refuse(*args):
        raise AssertionError(f"log-gamma expansion {args} built")

    monkeypatch.setattr(asym, "log_gamma_expansion", refuse)
    code = main(["asym", "series", "--which", "onepoint", "--order", "99"])
    assert code == 2
    assert capsys.readouterr().err == "error: order must be between 1 and 10\n"


def test_bounds(capsys):
    code, out = run(capsys, "bounds", "--gmax", "30")
    assert code == 0
    payload = json.loads(out)
    assert payload["lemma6_ok"] is True
    assert payload["lemma7_ok"] is True
    assert payload["lemma7_x_max"] == 14


def test_bounds_excess_bound_starts_at_x50(capsys):
    # lemma6_check bounds the scaled excess only from X = 50 on; below that
    # the payload has no bound to certify.
    for gmax, certified in ((7, False), (49, False), (50, True)):
        code, out = run(capsys, "bounds", "--gmax", str(gmax))
        assert code == 0
        bound = json.loads(out)["excess_bound"]
        assert (bound is not None) == certified, gmax
    code, out = run(capsys, "bounds", "--gmax", "7", "--format", "csv")
    assert code == 0
    assert "excess_bound,\r\n" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["bounds", "--gmax", "0"], "gmax must be at least 1", id="0"),
        pytest.param(["bounds", "--gmax", "-3"], "gmax must be at least 1", id="-3"),
        pytest.param(["check-formulas", "--budget", "none"], "unknown budget 'none' (one of ['default', 'smoke'])", id="check-formulas--budget=none"),
        pytest.param(["check-formulas", "--budget", "foo"], "unknown budget 'foo' (one of ['default', 'smoke'])", id="check-formulas--budget=foo"),
        pytest.param(["painleve", "--gmax", "-1"], "gmax must be at least 0", id="painleve--gmax=-1"),
        pytest.param(["check-identities", "--sample", "-3"], "sample must be between 0 and 66", id="check-identities--sample=-3"),
        pytest.param(["check-identities", "--sample", "67"], "sample must be between 0 and 66", id="check-identities--sample=67"),
        pytest.param(["table", "--genus", "0"], "genus must be at least 2", id="table--genus=0"),
        pytest.param(["sweep-nesting", "--gmax", "1"], "gmax must be at least 2", id="sweep-nesting--gmax=1"),
        pytest.param(["theta", "--x", "0", "--n", "1"], "x and n must be at least 1", id="theta--x=0"),
        pytest.param(["theta", "--x", "4", "--n", "3"], "empty feasible set: n must be at most x and have the parity of x (x=4, n=3)", id="theta--x=4--n=3"),
        pytest.param(["theta", "--x", "3", "--n", "5"], "empty feasible set: n must be at most x and have the parity of x (x=3, n=5)", id="theta--x=3--n=5"),
        pytest.param(["asym", "series", "--which", "onepoint", "--order", "0"], "order must be between 1 and 10", id="asym-series-onepoint--order=0"),
        pytest.param(["asym", "series", "--which", "largest", "--order", "7"], "order must be between 1 and 6", id="asym-series-largest--order=7"),
        pytest.param(["asym", "fit", "--k", "5"], "k must be between 0 and 4", id="asym-fit--k=5"),
        # g = 1 and X = 65534: the memo codes count each value in 16 bits,
        # and a key of X reaches keys of up to X + 3 entries.
        pytest.param(["compute", ",".join(["0"] * 65533 + ["65534"])], "X = 65534 is past the recursion's range, X + 3 < 65536", id="compute-X=65534"),
    ],
)  # fmt: skip
def test_bounds_rejects_gmax_below_one(argv, message, capsys):
    # Each range check has one owner: the library guard, or the handler
    # where an empty loop would otherwise pass.  Either way the message
    # names the quantity the user sets, and an empty range is a usage
    # error, not a run of no checks that passes.
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["compute", "1", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["value"] == "1/6"


def test_cache_save_and_load(tmp_path, capsys, fresh_memo):
    path = tmp_path / "memo.cache"
    code, out = run(capsys, "--cache", str(path), "compute", "2,2,5")
    assert code == 0
    assert path.exists()
    loaded = cache_load(str(path))
    assert len(loaded) > 0
    assert loaded[(2, 2, 5)] == n_value((2, 2, 5), MemoCache())
    # A warm run reads the file, prints the same value and does not write
    # the file at all.
    past = 10**18  # 2001-09-09, in ns
    os.utime(path, ns=(past, past))
    before = path.read_bytes()
    fresh_memo()
    code, again = run(capsys, "--cache", str(path), "compute", "2,2,5")
    assert code == 0
    assert json.loads(again) == json.loads(out)
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == past
    # A run that adds entries rewrites it with a larger count.
    fresh_memo()
    code, _ = run(capsys, "--cache", str(path), "compute", "2,2,8")
    assert code == 0
    grown = cache_load(str(path))
    assert len(grown) > len(loaded)
    assert path.read_text().startswith(f"dvvcache v2 entries={len(grown)} ")
    # A new file is written even when the command adds no entry.
    new = tmp_path / "new.cache"
    fresh_memo()
    code, _ = run(capsys, "--cache", str(new), "compute", "1")
    assert code == 0
    assert new.read_text().startswith("dvvcache v2 entries=0 ")
    assert len(cache_load(str(new))) == 0


def test_failing_command_saves_nothing(tmp_path, capsys, fresh_memo):
    path = tmp_path / "memo.cache"
    assert main(["--cache", str(path), "compute", "2,3"]) == 0
    before = path.read_bytes()
    # chat on even X is refused after C(0,5) has been added to the memo.
    fresh_memo()
    assert main(["--cache", str(path), "compute", "0,5", "--norm", "chat"]) == 2
    assert (0, 5) in dvv.default_cache()
    assert path.read_bytes() == before
    missing = tmp_path / "missing.cache"
    assert main(["--cache", str(missing), "compute", "2,,3"]) == 2
    assert not missing.exists()


def test_cache_load_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.cache"
    path.write_text("not a cache\n")
    code = main(["--cache", str(path), "compute", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1:")
    assert path.read_text() == "not a cache\n"


def test_cache_load_refuses_v1_file(tmp_path, capsys):
    path = tmp_path / "old.cache"
    path.write_text("dvvcache v1\n2,3 = 1015/3888\n")
    code = main(["--cache", str(path), "compute", "2,3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: a dvvcache v1 file")
    assert path.read_text() == "dvvcache v1\n2,3 = 1015/3888\n"


def test_cache_load_rejects_forged_one_point_entry(tmp_path, capsys):
    # A valid v2 file, right count and SHA-256, whose one entry says
    # N((4,)) = 1 where 9!! = 945.
    body = "4 = 1\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    text = f"dvvcache v2 entries=1 sha256={digest}\n{body}"
    path = tmp_path / "bad.memo"
    path.write_text(text)
    code = main(["--cache", str(path), "compute", "4"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: entry '4 = 1' fails N((3g-2,))")
    assert path.read_text() == text


@pytest.mark.parametrize(
    "fault, error",
    [
        ("count", "error: line 1: bad version header 'dvvcache v2 entries=\u0662 "),
        ("byte", "error: line 3: byte 0xff is not UTF-8 text\n"),
    ],
    ids=["count", "byte"],
)
def test_cache_load_refuses_non_ascii_count_and_non_utf8_byte(
    fault, error, tmp_path, capsys
):
    # A valid two-entry body; the header's count is the Arabic-Indic digit
    # two, or the second entry's value starts with a 0xff byte.
    body = "2,3 = 23af\n4 = 3b1\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    data = f"dvvcache v2 entries=2 sha256={digest}\n{body}".encode()
    if fault == "count":
        data = data.replace(b"entries=2", "entries=\u0662".encode())
    else:
        data = data.replace(b"4 = ", b"4 = \xff")
    path = tmp_path / "bad.memo"
    path.write_bytes(data)
    assert main(["--cache", str(path), "compute", "2,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(error)
    assert path.read_bytes() == data


@pytest.mark.parametrize("where", ["cache", "out"])
def test_unusable_path_is_an_error(where, tmp_path, capsys):
    if where == "cache":
        argv = ["--cache", str(tmp_path), "compute", "1"]  # a directory
    else:
        argv = ["--out", str(tmp_path / "nodir" / "x.json"), "compute", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--threads", "2", "compute", "1"],
        ["cache", "save", "x"],
        ["painleve", "--gmax", "5", "--bridge-gmax", "1"],
    ],
)
def test_removed_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
