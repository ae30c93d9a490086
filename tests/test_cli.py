import io
import json
import os

import pytest

from idealfunc import _sieve
from idealfunc.cli import main
from idealfunc.summatory import CSV_HEADER


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def assert_one_line_error(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def fake_physical_memory(monkeypatch, nbytes):
    """Make os.sysconf report `nbytes` of physical memory in 4 KiB pages."""
    sysconf = os.sysconf
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))


def test_field_plain_and_json():
    code, out, _ = run_cli(["field", "--field", "q:-1"])
    assert code == 0
    assert out.strip() == "label=q:-1 degree=2 discriminant=-4"
    code, out, _ = run_cli(["field", "--field", "q:-1", "--format", "json"])
    assert json.loads(out) == {"label": "q:-1", "degree": 2, "discriminant": -4}


def test_field_usage_errors():
    # 12 is not squarefree, so q:12 is not a valid designation
    code, _, err = run_cli(["field", "--field", "q:12"])
    assert code == 1 and "error:" in err
    code, _, err = run_cli(["field", "--field", "bogus"])
    assert code == 1
    code, _, err = run_cli(["nonsense"])
    assert code == 1


def test_enumerate_csv():
    code, out, _ = run_cli(["enumerate", "--field", "q:-1", "--xmax", "10"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "norm,factorization"
    assert lines[1] == "1,1"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 4, 5, 5, 8, 9, 10, 10]
    code, _, err = run_cli(["enumerate", "--field", "q", "--xmax", "0"])
    assert code == 1


def test_eval():
    code, out, _ = run_cli(["eval", "--field", "q", "--fn", "mobius",
                            "--order", "1", "--ideal", "6"])
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(["eval", "--field", "q", "--fn", "mobius",
                            "--order", "2", "--ideal", "4"])
    assert out.strip() == "-1"
    code, out, _ = run_cli(["eval", "--field", "q:-1", "--fn", "jordan",
                            "--order", "1", "--ideal", "5:1"])
    assert code == 0 and out.strip() == "4"
    # no third ideal of norm 5 in Z[i]
    code, _, err = run_cli(["eval", "--field", "q:-1", "--fn", "mobius",
                            "--order", "1", "--ideal", "5:2"])
    assert code == 1
    code, _, err = run_cli(["eval", "--field", "q", "--fn", "mobius",
                            "--order", "0", "--ideal", "6"])
    assert code == 1


def test_eval_large_norm_from_factorization(monkeypatch):
    # 10^9 + 7 is prime and 3 mod 4, so it stays inert in Z[i]: no ideal has
    # that norm.  10^9 + 9 is prime and 1 mod 4, so it splits.
    code, out, err = run_cli(["eval", "--field", "q:-1", "--fn", "mobius",
                              "--order", "2", "--ideal", "1000000007"])
    assert code == 1 and out == ""
    assert err.strip() == "error: no ideal of norm 1000000007 with index 0 (0 such ideals exist)"
    code, out, _ = run_cli(["eval", "--field", "q:-1", "--fn", "jordan",
                            "--order", "1", "--ideal", "1000000009:1"])
    assert code == 0 and out.strip() == "1000000008"
    code, out, _ = run_cli(["eval", "--field", "q", "--fn", "mobius",
                            "--order", "1", "--ideal", "1000000007"])
    assert code == 0 and out.strip() == "-1"
    # 2^62 - 1 needs the primes up to 2^31 - 1: refused by the norm the user gave
    fake_physical_memory(monkeypatch, 8 * 2**30)
    code, out, err = run_cli(["eval", "--field", "q", "--fn", "mobius",
                              "--order", "2", "--ideal", "4611686018427387903"])
    assert_one_line_error(code, out, err)
    assert err.startswith("error: ideal norm 4611686018427387903 is too large to factor")
    assert "physical memory" in err


def test_sum_qfree_anchor():
    code, out, _ = run_cli(["sum", "--field", "q", "--fn", "qfree",
                            "--order", "2", "--x", "100"])
    assert code == 0 and out.strip() == "61"
    code, fast_out, _ = run_cli(["sum", "--field", "q", "--fn", "qfree",
                                 "--order", "2", "--x", "100", "--fast"])
    assert fast_out == out
    code, _, err = run_cli(["sum", "--field", "q", "--fn", "mobius",
                            "--order", "1", "--x", "100", "--fast"])
    assert code == 1


def test_sum_fast_refuses_large_x_at_once(monkeypatch):
    # the exact square root of 10^50 is found at once and needs a 10^25 sieve
    fake_physical_memory(monkeypatch, 8 * 2**30)
    code, out, err = run_cli(["sum", "--field", "q", "--fn", "qfree",
                              "--order", "2", "--x", "1e50", "--fast"])
    assert_one_line_error(code, out, err)
    assert "x = 1e+50 is too large" in err


def test_sum_mobius_liouville():
    code, out, _ = run_cli(["sum", "--field", "q", "--fn", "mobius",
                            "--order", "2", "--x", "10"])
    assert code == 0 and out.strip() == "5"
    code, out, _ = run_cli(["sum", "--field", "q:-1", "--fn", "liouville",
                            "--order", "1", "--x", "1"])
    assert code == 0 and out.strip() == "1"


def test_report_csv():
    code, out, _ = run_cli(["report", "--field", "q", "--theorem", "3",
                            "--order", "2", "--grid", "10:1000:3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,fn,k,x,raw,main,remainder,normalizer,normalized"
    assert len(lines) == 4
    assert lines[1].startswith("q,Q,2,")


def test_report_json_and_liouville_pairs():
    code, out, _ = run_cli(["report", "--field", "q", "--theorem", "2",
                            "--order", "2", "--grid", "10:100:2",
                            "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4  # two normalizations per grid point
    assert {row["normalizer"] for row in rows} == {"x^0.6", "x*exp(-sqrt(log(x)))"}
    assert all(row["main"] == 0.0 for row in rows)


def test_report_count_remainder():
    code, out, _ = run_cli(["report", "--field", "q:-1", "--theorem", "0",
                            "--grid", "100:10000:3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,fn,k,x,raw,main,remainder,normalizer,normalized"
    assert [line.split(",")[:5] for line in lines[1:]] == [
        ["q:-1", "R", "0", "100", "79"], ["q:-1", "R", "0", "1000", "787"],
        ["q:-1", "R", "0", "10000", "7854"]]
    assert all(line.split(",")[7] == "x^((d-1)/(d+1));d=2" for line in lines[1:])
    # the remainder against c_F = pi/4 (to its series tail), normalized by x^(1/3)
    row = lines[1].split(",")
    assert float(row[6]) == pytest.approx(79 - 25 * 3.14159265358979, abs=1e-3)
    assert float(row[8]) == pytest.approx(float(row[6]) / 100 ** (1 / 3))
    # --order is required for theorems 1-3 only; table fields have no c_F
    code, _, err = run_cli(["report", "--field", "q", "--theorem", "1",
                            "--grid", "10:100:2"])
    assert code == 1 and "--order" in err
    code, out, _ = run_cli(["report", "--field", "q", "--theorem", "0",
                            "--grid", "10:100:2", "--format", "json"])
    assert code == 0
    assert [(r["fn"], r["k"], r["raw"], r["remainder"]) for r in json.loads(out)] == [
        ("R", 0, 10, 0.0), ("R", 0, 100, 0.0)]


@pytest.mark.parametrize("theorem", ["0", "1", "2", "3"])
@pytest.mark.parametrize("k", ["2", "4"])
def test_report_csv_rows_match_header(theorem, k):
    code, out, _ = run_cli(["report", "--field", "q:-1", "--theorem", theorem,
                            "--order", k, "--grid", "10:1000:3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) > 1
    assert {len(line.split(",")) for line in lines} == {len(CSV_HEADER.split(","))}


def test_report_table_field_count_rejected(tmp_path):
    path = tmp_path / "tbl.txt"
    path.write_text("2 1 1 1\n3 1 1 1\n5 1 1 1\n7 1 1 1\n")
    # the count, Mobius and k-free reports need c_F, which a table field lacks;
    # they refuse before sieving anything
    for theorem in ("0", "1", "3"):
        _sieve.clear_cache()
        code, _, err = run_cli(["report", "--field", f"table:{path}", "--theorem", theorem,
                                "--order", "2", "--grid", "2:10:2"])
        assert code == 1 and err.startswith("error:"), theorem
        assert not _sieve._CUM_CACHE, theorem


def test_report_bad_grid():
    for grid in ("10", "100:10:3", "0:10:3", "a:b:c"):
        code, _, err = run_cli(["report", "--field", "q", "--theorem", "1",
                                "--order", "2", "--grid", grid])
        assert code == 1, grid


def test_zeta_json_keys():
    code, out, _ = run_cli(["zeta", "--field", "q", "--s", "2.0"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "tail_bound", "method"}
    assert payload["value"] == pytest.approx(1.6449340668, abs=1e-4)
    code, _, err = run_cli(["zeta", "--field", "q", "--s", "1.0"])
    assert code == 1


@pytest.mark.parametrize("s,tol,code", [
    ("2", "1e-6", 0),
    ("3", "1e-9", 0),
    ("2", "1e-9", 1),     # relative tail bound 6.7e-7 at the capped cutoff
    ("1.05", "1e-9", 1),  # tail bound about 2e9
    ("0.7", "1e-6", 1),   # the cutoff formula is complex below s = 1
    ("1.0005", "1e-6", 1),  # and overflows a float near s = 1
    ("1.002", "1e-300", 1),
    ("1.5", "5e-324", 1),  # tol * (s - 1) underflows to 0
])
def test_zeta_tol_is_met_or_refused(s, tol, code):
    got, out, err = run_cli(["zeta", "--field", "q", "--s", s, "--tol", tol])
    assert got == code, err
    if code == 0:
        payload = json.loads(out)
        assert payload["tail_bound"] <= float(tol) * payload["value"]
    else:
        assert out == "" and len(err.strip().splitlines()) == 1


def test_constant_json():
    code, out, _ = run_cli(["constant", "--field", "q", "--order", "2"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "tail_bound", "method"}
    assert 0 < payload["value"] <= 1


def test_verify_small_passes():
    code, out, _ = run_cli(["verify", "--field", "q", "--suite", "identities",
                            "--xmax", "200", "--kmax", "3"])
    assert code == 0
    assert "passed identities suite" in out
    code, out, _ = run_cli(["verify", "--field", "q:-5", "--suite", "counting",
                            "--xmax", "300", "--kmax", "3"])
    assert code == 0


def test_output_independent_of_threads_env():
    # three repeated in-process runs give identical bytes
    argv = ["report", "--field", "q:-1", "--theorem", "1",
            "--order", "2", "--grid", "10:10000:5"]
    outputs = [run_cli(argv)[1] for _ in range(3)]
    assert outputs[0] and outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("argv", [
    ["sum", "--field", "q", "--fn", "mobius", "--order", "2", "--x", "inf"],
    ["sum", "--field", "q", "--fn", "mobius", "--order", "2", "--x", "nan"],
    ["enumerate", "--field", "q", "--xmax", "inf"],
    ["zeta", "--field", "q", "--s", "-inf"],
    ["zeta", "--field", "q", "--s", "two"],
])
def test_non_finite_numbers_rejected(argv):
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("x", ["1e12", "1e300"])
def test_sum_refuses_x_beyond_physical_memory(x):
    # only x the preflight refuses: 17 bytes per norm must exceed physical memory
    assert 17 * float(x) > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    code, out, err = run_cli(["sum", "--field", "q:-1", "--fn", "mobius", "--order", "2",
                              "--x", x])
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "physical memory" in err


def test_enumerate_refuses_xmax_beyond_physical_memory():
    # only xmax the preflight refuses: 17 bytes per norm must exceed physical memory
    assert 17 * 1e12 > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    code, out, err = run_cli(["enumerate", "--field", "q:-1", "--xmax", "1e12"])
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "physical memory" in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--field", "q", "--xmax", "1e6"],
    ["verify", "--field", "q:-1", "--suite", "identities", "--xmax", "1000000"],
    ["verify", "--field", "q:-1", "--suite", "counting", "--xmax", "1000000"],
])
def test_enumeration_refused_beyond_physical_memory(monkeypatch, argv):
    # 10^6 ideals take about 0.5 GB in the list enumerate_ideals sorts
    fake_physical_memory(monkeypatch, 64 * 2**20)
    code, out, err = run_cli(argv)
    assert_one_line_error(code, out, err)
    assert "too large to enumerate" in err and "physical memory" in err


@pytest.mark.parametrize("argv", [
    # float n**k overflows in the Euler product of the density constant
    ["constant", "--field", "q:-1", "--order", "1000"],
    ["report", "--field", "q", "--theorem", "1", "--order", "1000", "--grid", "10:100:2"],
    # float(k) overflows
    ["constant", "--field", "q", "--order", "9" * 400],
    ["report", "--field", "q", "--theorem", "3", "--order", "9" * 400, "--grid", "10:100:2"],
])
def test_overflow_exits_with_one_line(argv):
    assert_one_line_error(*run_cli(argv))


_WITHOUT_FORMAT = [
    ["enumerate", "--field", "q", "--xmax", "10"],
    ["eval", "--field", "q", "--fn", "mobius", "--order", "1", "--ideal", "6"],
    ["sum", "--field", "q", "--fn", "mobius", "--order", "2", "--x", "10"],
    ["zeta", "--field", "q", "--s", "2"],
    ["constant", "--field", "q", "--order", "2"],
]


@pytest.mark.parametrize("argv", [
    *(argv + ["--format", fmt] for argv in _WITHOUT_FORMAT for fmt in ("plain", "csv", "json")),
    ["field", "--field", "q", "--format", "csv"],
    ["report", "--field", "q", "--theorem", "0", "--grid", "10:100:2", "--format", "plain"],
])
def test_format_only_where_it_changes_the_output(argv):
    # field takes plain|json and report csv|json; no other subcommand has --format
    assert_one_line_error(*run_cli(argv))
