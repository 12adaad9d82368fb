"""Command-line interface: output contracts, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from arcperm.cli import VERIFY_LIMIT, VERIFY_TQ_LIMIT, main
from arcperm.formulas import REGISTRY, formula_names


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_arc(capsys):
    code, out, _ = run(capsys, "enumerate", "--set", "arc", "--n", "4")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 17
    assert lines[-1] == "count 16"


def test_enumerate_b_arc_n1(capsys):
    code, out, _ = run(capsys, "enumerate", "--set", "b-arc", "--n", "1")
    assert code == 0
    assert out.strip().splitlines() == ["[1]", "[-1]", "count 2"]


def test_enumerate_rejects_bad_input(capsys):
    code, _, err = run(capsys, "enumerate", "--set", "arc", "--n", "0")
    assert code == 2
    code, _, _ = run(capsys, "enumerate", "--set", "nosuch", "--n", "3")
    assert code == 2


def test_enumerate_guard_and_force(capsys):
    code, _, err = run(capsys, "enumerate", "--set", "sym", "--n", "10")
    assert code == 2 and "guard" in err
    code, _, err = run(capsys, "enumerate", "--set", "arc", "--n", "13")
    assert code == 2 and "guard" in err
    code, out, err = run(capsys, "enumerate", "--set", "arc", "--n", "13", "--force")
    assert code == 0 and "warning" in err
    assert out.strip().splitlines()[-1] == f"count {13 * 2**11}"


def test_enumerate_csv_schema(capsys):
    code, out, _ = run(capsys, "enumerate", "--set", "arc", "--n", "2", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "index,permutation"
    assert lines[1] == '1,"[1,2]"'
    assert lines[-1] == "count,2"


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--set", "signed-arc", "--n", "2", "--format", "json")
    data = json.loads(out)
    assert data["count"] == 8
    assert len(data["items"]) == 8


def test_stats_lines(capsys):
    code, out, _ = run(capsys, "stats", "--perm", "[2,-1,3]")
    assert code == 0
    assert "fmaj 3" in out
    assert "fdes 2" in out
    assert "sign 1" in out


def test_stats_identity_and_group_a(capsys):
    code, out, _ = run(capsys, "stats", "--perm", "[1,2,3]")
    assert "fmaj 0" in out and "neg 0" in out
    code, out, _ = run(capsys, "stats", "--perm", "231", "--group", "A")
    assert "maj 2" in out and "inv 2" in out


def test_stats_parse_error(capsys):
    code, _, err = run(capsys, "stats", "--perm", "[2,2]")
    assert code == 2
    assert "2" in err


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "--perm", "[-2,-1]", "--format", "json")
    data = json.loads(out)
    assert data["fmaj"] == 4 and data["fdes"] == 3 and data["des_set"] == [1]


def test_check_member(capsys):
    code, out, _ = run(capsys, "check", "--perm", "12543", "--set", "arc")
    assert code == 0
    assert out.strip() == "MEMBER"


def test_check_non_member_with_witness(capsys):
    code, out, _ = run(capsys, "check", "--perm", "[-2,1,3]", "--set", "signed-arc")
    assert code == 0
    assert "NON-MEMBER" in out
    assert "reason:" in out
    assert "pattern: [-2,1,3]" in out


def test_check_b_arc(capsys):
    code, out, _ = run(capsys, "check", "--perm", "[5,2,-1,4,3]", "--set", "b-arc")
    assert "NON-MEMBER" in out
    code, out, _ = run(capsys, "check", "--perm", "[-2,3,-1]", "--set", "b-arc")
    assert out.strip() == "MEMBER"


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--perm", "[-2,1,3]", "--set", "signed-arc",
                       "--format", "json")
    data = json.loads(out)
    assert data["member"] is False
    assert data["pattern_witness"]["positions"] == [1, 2, 3]


def test_decompose_a(capsys):
    code, out, _ = run(capsys, "decompose", "--group", "A", "--perm", "231")
    assert code == 0
    assert "A k=[0,2]" in out
    assert "maj 2" in out
    assert "arc_by_exponents True" in out
    assert "recomposed [2,3,1]" in out


def test_decompose_b(capsys):
    code, out, _ = run(capsys, "decompose", "--group", "B", "--perm", "[-1]")
    assert "B k=[1]" in out and "fmaj 1" in out
    code, out, _ = run(capsys, "decompose", "--group", "B", "--perm", "[1,2,3]")
    assert "B k=[0,0,0]" in out


def test_verify_single_formula(capsys):
    code, out, _ = run(capsys, "verify", "--formula", "f_A_maj", "--n-max", "10")
    assert code == 0
    assert out.count("EQUAL") >= 9
    assert "summary: 9 EQUAL, 0 MISMATCH, 1 OUT_OF_STATED_RANGE" in out


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--formula", "all", "--n-max", "8")
    assert code == 0
    assert "0 MISMATCH" in out


def test_verify_unknown_formula(capsys):
    code, _, err = run(capsys, "verify", "--formula", "nosuch")
    assert code == 2
    assert "unknown formula" in err


def test_verify_guard_and_force(capsys):
    n = VERIFY_LIMIT + 1
    code, out, err = run(capsys, "verify", "--formula", "f_L_des_set", "--n-max", str(n))
    assert code == 2 and out == ""
    assert "guard" in err and "--force" in err
    code, out, err = run(capsys, "verify", "--formula", "f_L_des_set", "--n-max", str(n), "--force")
    assert code == 0 and "warning" in err
    assert f"summary: {n} EQUAL, 0 MISMATCH, 0 OUT_OF_STATED_RANGE" in out
    # an identity in t, q and a character only has its own, larger guard
    code, out, err = run(capsys, "verify", "--formula", "f_A_maj", "--n-max", str(n))
    assert code == 0 and err == ""
    assert f"summary: {n - 1} EQUAL, 0 MISMATCH, 1 OUT_OF_STATED_RANGE" in out
    n = VERIFY_TQ_LIMIT + 1
    code, out, err = run(capsys, "verify", "--formula", "f_A_maj", "--n-max", str(n))
    assert code == 2 and out == ""
    assert err == f"error: n={n} exceeds the guard {VERIFY_TQ_LIMIT} for f_A_maj (use --force)\n"


def test_verify_guard_names_every_identity_over_its_limit(capsys):
    n = VERIFY_TQ_LIMIT + 1
    code, out, err = run(capsys, "verify", "--formula", "all", "--n-max", str(n))
    assert code == 2 and out == ""
    xy, tq = [], []
    for name in formula_names():
        (xy if REGISTRY[name].weights.letters else tq).append(name)
    assert len(xy) == 8 and len(tq) == 16
    assert err == (f"error: n={n} exceeds the guard {VERIFY_LIMIT} for {', '.join(xy)}; "
                   f"the guard {VERIFY_TQ_LIMIT} for {', '.join(tq)} (use --force)\n")


def test_errors_are_json_under_json_format(capsys):
    code, out, err = run(capsys, "verify", "--formula", "nosuch", "--format", "json")
    assert code == 2 and out == ""
    assert "unknown formula 'nosuch'" in json.loads(err)["error"]
    code, _, err = run(capsys, "verify", "--formula", "nosuch", "--format", "csv")
    assert code == 2 and err.startswith("error: unknown formula")


def test_parse_errors_are_json_under_json_format(capsys):
    argv = ["verify", "--formula", "all", "--n-max", "x"]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2 and out == ""
    assert "--n-max" in json.loads(err)["error"]
    code, out, err = run(capsys, "nosuch", "--format=json")
    assert code == 2 and out == "" and "nosuch" in json.loads(err)["error"]
    # lines and csv keep argparse's own report: the usage, then the error
    for fmt in ("lines", "csv"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("usage: arcperm verify ")
        assert "\narcperm verify: error: argument --n-max: " in err


def test_verify_rejects_empty_range(capsys):
    for n_max in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--formula", "all", "--n-max", n_max)
        assert code == 2
        assert out == ""
        assert "--n-max" in err


def test_verify_negative_control(capsys):
    code, out, _ = run(capsys, "verify", "--formula", "negative-control", "--n-max", "4")
    assert code == 1
    assert "MISMATCH" in out
    assert "diff:" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--formula", "f_A_des", "--n-max", "4",
                       "--format", "json")
    rows = json.loads(out)
    assert [r["status"] for r in rows] == [
        "OUT_OF_STATED_RANGE", "OUT_OF_STATED_RANGE", "EQUAL", "EQUAL",
    ]
    assert rows[0]["lhs"] is None and rows[0]["rhs"] is not None


def test_table_fdes(capsys):
    code, out, _ = run(capsys, "table", "--stat", "fdes", "--set", "b-arc", "--n", "2")
    assert out.strip().splitlines() == ["0 1", "1 3", "2 3", "3 1", "total 8"]


def test_table_maj_arc(capsys):
    code, out, _ = run(capsys, "table", "--stat", "maj", "--set", "arc", "--n", "2")
    assert out.strip().splitlines() == ["0 1", "1 1", "total 2"]


def test_table_csv_schema(capsys):
    code, out, _ = run(capsys, "table", "--stat", "des", "--set", "arc", "--n", "3",
                       "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "value,count"
    assert lines[1:] == ["0,1", "1,4", "2,1"]


def test_table_inv_note_and_invalid_pairs(capsys):
    code, out, _ = run(capsys, "table", "--stat", "inv", "--set", "b-arc", "--n", "2")
    assert code == 0
    assert "absolute word" in out
    code, _, err = run(capsys, "table", "--stat", "fdes", "--set", "arc", "--n", "3")
    assert code == 2 and "signed set" in err


def test_table_row_sums(capsys):
    code, out, _ = run(capsys, "table", "--stat", "neg", "--set", "b-arc", "--n", "4",
                       "--format", "json")
    data = json.loads(out)
    assert data["total"] == 4 * 2**4
    assert sum(data["counts"].values()) == data["total"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "enumerate", "--set", "arc", "--n", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().strip().splitlines() == ["[1,2]", "[2,1]", "count 2"]


def test_unwritable_output_file(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "enumerate", "--set", "arc", "--n", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


def test_output_file_is_rewritten_to_its_new_length(tmp_path, capsys):
    # the file is rewritten in place and then cut: a shorter text leaves no
    # tail of the longer one before it
    target = tmp_path / "out.txt"
    for n in ("4", "2"):
        code, out, _ = run(capsys, "enumerate", "--set", "arc", "--n", n, "--out", str(target))
        assert code == 0 and out == ""
    assert target.read_text() == "[1,2]\n[2,1]\ncount 2\n"
    # created with the mode open(..., "w") gives, following a symlink
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    assert target.stat().st_mode == plain.stat().st_mode
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert run(capsys, "enumerate", "--set", "arc", "--n", "1", "--out", str(link))[0] == 0
    assert link.is_symlink() and target.read_text() == "[1]\ncount 1\n"


def test_output_to_a_device_and_to_a_directory(tmp_path, capsys):
    # /dev/null cannot be cut to length, and is not; a directory cannot be opened
    code, out, err = run(capsys, "verify", "--formula", "f_A_maj", "--n-max", "3",
                         "--out", os.devnull)
    assert (code, out, err) == (0, "", "")
    code, out, err = run(capsys, "verify", "--formula", "f_A_maj", "--n-max", "3",
                         "--format", "json", "--out", str(tmp_path))
    assert code == 2 and out == "" and "error" in json.loads(err)


def test_an_error_after_written_rows_exits_2(monkeypatch, capsys, tmp_path):
    # f_A_des builds from n = 3, after the rows of the three identities before
    # it were written: they stay written, and the error follows on stderr
    def broken(n):
        raise ValueError("no closed form today")

    monkeypatch.setitem(REGISTRY, "f_A_des", dataclasses.replace(REGISTRY["f_A_des"], build=broken))
    argv = ["verify", "--formula", "all", "--n-max", "3", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and json.loads(err) == {"error": "no closed form today"}
    assert out.startswith("[\n  {\n") and not out.endswith("\n")
    assert '"formula": "f_A_des_maj",\n    "n": 3,' in out
    assert '"formula": "f_A_des",\n    "n": 2,' in out and '"n": 3,\n    "status": "EQUAL"' in out
    target = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(target)) == (2, "", err)
    assert target.read_text() == out
    code, out, err = run(capsys, *argv[:-2])
    assert code == 2 and err == "error: no closed form today\n"
    assert out.splitlines()[-1] == "f_A_des n=2 OUT_OF_STATED_RANGE (stated validity is n >= 3; " \
        "literal form carries (1+t)^(n-3); brute-force value reported as rhs)"


def test_byte_identical_reruns(capsys):
    first = run(capsys, "verify", "--formula", "f_AB_des_set", "--n-max", "6", "--format", "json")
    second = run(capsys, "verify", "--formula", "f_AB_des_set", "--n-max", "6", "--format", "json")
    assert first == second


# verify computes each row, writes it and drops it before the next.  The
# largest row of f_As_des_neg_inv at n <= 14 is n = 14's.  A fresh process
# peaked at 125.8 MB writing one row at a time, at 149.1 MB holding the
# identity's earlier rows while it computed n = 14, and at 157.8 MB holding
# every row until the end (three runs each, within 0.3 MB; 2-vCPU VM,
# Python 3.11.7).  The bound is 12 MB above the first figure; the same run
# now reads 116.3 MB.  Under --format json each polynomial is written in
# runs of terms (SparsePolynomial.json_chunks), so the text of one run is
# held, not the text of the largest polynomial.  The JSON run stops at
# n = 13, which takes half the time of n = 14: it peaked at 90.4 MB in runs
# and at 174 MB writing each polynomial's text as one string (three runs
# each, within 1.5 MB, same machine); its bound is 13 MB above the first.
# At n = 14 the two read 187.0 and 363.2 MB.  Every polynomial of one JSON
# write shares one table of decoded groups (cli._json_rows), which is held
# until the write ends: verify --formula all --n-max 12 --format json peaked
# at 50.4-51.4 MB with a table per polynomial and at 54.1-54.4 MB with the
# shared one (six runs each, same machine).  Its bound is 8 MB, about 15%,
# above the highest second figure, as the bounds above are 12 and 13 MB
# above theirs.
PEAK_ARGV = ["verify", "--formula", "f_As_des_neg_inv", "--n-max", "14"]
PEAK_BOUNDS_MB = [(PEAK_ARGV, 138),
                  (["verify", "--formula", "f_As_des_neg_inv", "--n-max", "13", "--format", "json"],
                   104),
                  (["verify", "--formula", "all", "--n-max", "12", "--format", "json"], 62)]


def test_verify_holds_one_row_at_a_time():
    # a parent of its own reads the CLI's peak: RUSAGE_CHILDREN of the test
    # process would hold the largest child of any earlier test too
    script = ("import resource, subprocess, sys\n"
              "subprocess.run([sys.executable, '-m', 'arcperm.cli', *sys.argv[1:]], check=True,"
              " stdout=subprocess.DEVNULL)\n"
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for argv, bound_mb in PEAK_BOUNDS_MB:
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env, check=True,
                              capture_output=True, text=True)
        peak_mb = int(done.stdout) / (1024 * 1024 if sys.platform == "darwin" else 1024)
        assert peak_mb < bound_mb, argv
