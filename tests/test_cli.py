"""The command-line surface: parsing, formats, exit codes, cache flow."""

from __future__ import annotations

import csv
import io
import json

import pytest

from psiclass.cli import main
from psiclass.dvv import MemoCache, cache_load, n_value


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute_json(capsys):
    code, out = run(capsys, "compute", "2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1015/3888"
    assert payload["genus"] == 2
    assert payload["norm"] == "c"


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


def test_theta(capsys):
    code, out = run(capsys, "theta", "--x", "3", "--n", "1")
    assert code == 0
    assert json.loads(out)["theta"] == "35/144"
    code = main(["theta", "--x", "4", "--n", "1"])
    assert code == 2
    assert "empty feasible set" in capsys.readouterr().err


def test_check_formulas_smoke(capsys):
    code, out = run(capsys, "check-formulas", "--budget", "smoke")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["rows"]) == 5


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


def test_asym_series(capsys):
    code, out = run(capsys, "asym", "series", "--which", "largest", "--order", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][1]["coefficient"] == "-2/9"
    assert payload["rows"][2]["coefficient"] == "-238/2025"
    code = main(["asym", "series", "--which", "onepoint", "--order", "99"])
    assert code == 2


def test_bounds(capsys):
    code, out = run(capsys, "bounds", "--gmax", "30")
    assert code == 0
    payload = json.loads(out)
    assert payload["lemma6_ok"] is True
    assert payload["lemma7_ok"] is True
    assert payload["lemma7_x_max"] == 14


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["compute", "1", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["value"] == "1/6"


def test_cache_save_and_load(tmp_path, capsys):
    path = tmp_path / "memo.cache"
    code, out = run(capsys, "--cache", str(path), "compute", "2,2,5")
    assert code == 0
    assert path.exists()
    loaded = cache_load(str(path))
    assert len(loaded) > 0
    assert loaded.table[(2, 2, 5)] == n_value((2, 2, 5), MemoCache())
    # A warm run reads the file, prints the same value and rewrites it
    # unchanged.
    before = path.read_bytes()
    code, again = run(capsys, "--cache", str(path), "compute", "2,2,5")
    assert code == 0
    assert json.loads(again) == json.loads(out)
    assert path.read_bytes() == before


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
    "argv", [["--threads", "2", "compute", "1"], ["cache", "save", "x"]]
)
def test_removed_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
