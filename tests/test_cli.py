import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from pathlib import Path

from idealfunc import _sieve, _sublinear
from idealfunc import field as field_module
from idealfunc.cli import main
from idealfunc.field import parse_field, primes_up_to
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
    # the remainder against c_F = pi/4, normalized by x^(1/3)
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


def test_report_count_remainder_at_large_x_is_the_remainder():
    # R(x) / x^(1/3) over Q(i) stays below 1 at 10^9 and 10^10; a relative
    # error of 3e-6 in c_F alone would print 2.4 and 11.5 there
    code, out, err = run_cli(["report", "--field", "q:-1", "--theorem", "0",
                              "--grid", "1e9:1e10:2"])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[4] for row in rows] == ["785398102", "7853981364"]
    assert all(abs(float(row[8])) < 1 for row in rows)


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


def _table_text(primes, gaussian):
    # Q(i) (2 ramifies, p = 1 mod 4 splits, p = 3 mod 4 stays inert), or Q
    if not gaussian:
        return "".join(f"{p} 1 1 1\n" for p in primes)
    return "".join("2 1 2 1\n" if p == 2 else f"{p} 1 1 2\n" if p % 4 == 1
                   else f"{p} 2 1 1\n" for p in primes)


def test_rewritten_table_gives_the_new_answer(tmp_path, fresh_memos):
    from idealfunc.field import primes_up_to

    primes = primes_up_to(2000).tolist()
    path = tmp_path / "field.table"
    argv = ["--fn", "qfree", "--order", "2", "--x", "2000"]
    want = {spec: run_cli(["sum", "--field", spec, *argv])[1] for spec in ("q", "q:-1")}
    assert want["q"] != want["q:-1"]
    for text, spec in ((_table_text(primes, True), "q:-1"), (_table_text(primes, False), "q"),
                       ("2 1 1\n", None), (_table_text(primes, True), "q:-1")):
        path.write_text(text)  # the same path, a new text before each sum
        code, out, err = run_cli(["sum", "--field", f"table:{path}", *argv])
        if spec is None:  # a table that fails to parse
            assert_one_line_error(code, out, err)
        else:
            assert (code, out) == (0, want[spec]), err


REPORT_FIELDS = ("q", "q:-1", "q:-5", "q:2", "q:5")
REPORT_KINDS = {"0": "count", "1": "mobius", "2": "liouville", "3": "kfree"}


def _report_argv(spec, theorem, k, grid):
    return ["report", "--field", spec, "--theorem", theorem, "--order", k, "--grid", grid]


def _sieve_primed_report(spec, theorem, k, grid, monkeypatch):
    # a report whose every point reads one prefix-sum array to the largest x,
    # the route swapped for that sieve
    _sieve.clear_cache()
    sieve = {kind: lambda field, k, xs, kind=kind:
             _sieve.cumulative_array(field, kind, k, max(xs))[xs].tolist()
             for kind in REPORT_KINDS.values()}
    with monkeypatch.context() as patch:
        patch.setattr(_sublinear, "_SUMS", sieve)
        return run_cli(_report_argv(spec, theorem, k, grid))


@pytest.mark.parametrize("spec", REPORT_FIELDS)
def test_report_matches_the_sieve_primed_report(spec, fresh_memos, monkeypatch):
    # every grid takes the route, however dense: the bytes are those of one
    # sieve to its largest x
    for grid in ("1000:1000000:8", "1:500:40", "1000:1000000:200"):
        for theorem, k in [("0", "2")] + [(t, k) for t in "123" for k in "23"]:
            _sieve.clear_cache()
            got = run_cli(_report_argv(spec, theorem, k, grid))
            assert got[0] == 0 and \
                got == _sieve_primed_report(spec, theorem, k, grid, monkeypatch), \
                (grid, theorem, k)


@pytest.mark.parametrize("theorem", ["1", "2", "3"])
def test_dense_grid_past_the_budget_sieves_once(theorem, fresh_memos, monkeypatch):
    # with a budget under the route's two tables, only the newest kept array
    # is sure to stay; the grid holds the tables built for its largest x, so
    # each is sieved once, not once per point
    argv = _report_argv("q:-1", theorem, "2", "2e5:1e6:3")
    want = run_cli(argv)
    assert want[0] == 0
    _sieve.clear_cache()
    calls = []
    sieve = _sieve.coefficient_array
    monkeypatch.setattr(_sieve, "coefficient_array", lambda field, kind, k, xmax:
                        calls.append((kind, xmax)) or sieve(field, kind, k, xmax))
    monkeypatch.setattr(field_module, "_KEPT_BYTES", 8 * 10**4)  # a table takes 8 (10^4 + 1)
    assert run_cli(argv) == want
    # M_2 and the k-free count read a count table to isqrt(10^6) = 1000 (the
    # latter with the mu_1 table to 10^(6/2)); L_2 reads its count and mu_1
    # tables to T = 10^4
    assert sorted(calls) == {"1": [("count", 1000)],
                             "2": [("count", 10**4), ("mobius", 10**4)],
                             "3": [("count", 1000), ("mobius", 1000)]}[theorem]


def test_sparse_grid_keeps_no_sieve_array(fresh_memos):
    for theorem in "0123":
        for spec in REPORT_FIELDS:
            code, _, _ = run_cli(_report_argv(spec, theorem, "2", "1000:1000000:8"))
            assert code == 0
            assert all(cum.size <= 10**5 for cum in _sieve._CUM_CACHE.values()), (spec, theorem)


def test_report_over_a_table_field_matches_its_quadratic_field(tmp_path, fresh_memos,
                                                               monkeypatch):
    path = tmp_path / "qi.table"
    path.write_text(_table_text(primes_up_to(20_000).tolist(), True))
    calls = []
    sieve = _sieve.coefficient_array
    monkeypatch.setattr(_sieve, "coefficient_array", lambda field, kind, k, xmax:
                        calls.append(xmax) or sieve(field, kind, k, xmax))
    for grid in ("1000:20000:5", "1:20000:300"):
        _sieve.clear_cache()
        calls.clear()
        code, table_out, err = run_cli(_report_argv(f"table:{path}", "2", "2", grid))
        assert code == 0, err
        assert calls == [20_000]  # a table field has no route: one sieve
        assert table_out == run_cli(_report_argv("q:-1", "2", "2", grid))[1].replace(
            "q:-1,", f"table:{path},")


def test_report_reaches_as_far_as_sum():
    code, out, err = run_cli(_report_argv("q", "1", "2", "1e9:1e9:1"))
    assert code == 0, err
    raw = out.splitlines()[1].split(",")[4]
    assert raw == "428249584"
    assert run_cli(["sum", "--field", "q", "--fn", "mobius", "--order", "2",
                    "--x", "1e9"])[1] == raw + "\n"


def _module_globals():
    # every name at module level in the package, by (module, name)
    return {(module.__name__, name): value
            for module in (sys.modules[n] for n in list(sys.modules)
                           if n == "idealfunc" or n.startswith("idealfunc."))
            for name, value in vars(module).items()}


def _module_dicts():
    # every dict at module level in the package, by (module, name)
    return {key: value for key, value in _module_globals().items() if isinstance(value, dict)}


def _held_arrays():
    # the ids of the numpy arrays held at module level in the package,
    # directly or in a dict, list or tuple there, by (module, name)
    def arrays(value, depth=0):
        if isinstance(value, np.ndarray):
            return [value]
        if depth < 3 and isinstance(value, (dict, list, tuple)):
            items = value.values() if isinstance(value, dict) else value
            return [a for item in items for a in arrays(item, depth + 1)]
        return []

    return {key: [id(a) for a in held] for key, value in _module_globals().items()
            if (held := arrays(value))}


def test_one_session_of_every_subcommand_keeps_bounded_memos(tmp_path, fresh_memos):
    constants = _held_arrays()  # the arrays held from import on, such as `_sublinear._ONE_ROW`
    path = tmp_path / "qi.table"
    path.write_text(_table_text(primes_up_to(20_000).tolist(), True))
    table = f"table:{path}"
    before = {key: len(d) for key, d in _module_dicts().items()}
    # no function of the package keeps results of its own, but the parser
    assert {key for key, value in _module_globals().items()
            if hasattr(value, "cache_info")} == {("idealfunc.cli", "_build_parser")}
    session = [
        ["field", "--field", "q:-1"],
        ["enumerate", "--field", "q:5", "--xmax", "50"],
        ["eval", "--field", "q:-5", "--fn", "liouville", "--order", "2", "--ideal", "36"],
        ["sum", "--field", table, "--fn", "qfree", "--order", "2", "--x", "20000"],
        ["sum", "--field", table, "--fn", "qfree", "--order", "2", "--x", "20000", "--fast"],
        ["report", "--field", table, "--theorem", "2", "--order", "2", "--grid", "10:20000:4"],
        ["verify", "--field", "q:2", "--suite", "counting", "--xmax", "300", "--kmax", "2"],
        ["zeta", "--field", "q:-1", "--s", "2"],
        ["constant", "--field", "q:5", "--order", "3"],
    ]
    for spec in REPORT_FIELDS:
        session += [_report_argv(spec, theorem, "2", "1000:1000000:8") for theorem in "0123"]
        session += [["sum", "--field", spec, "--fn", fn, "--order", "3", "--x", "1e7"]
                    for fn in ("mobius", "liouville", "qfree")]
    for argv in session:
        code, _, err = run_cli(argv)
        assert code == 0, (argv, err)
    # the kept arrays stay within the one budget README states, but for the newest
    kept = list(field_module._CUM_CACHE.values())
    assert 0 < sum(a.nbytes for a in kept) <= field_module._KEPT_BYTES + kept[-1].nbytes
    assert field_module._KEPT_BYTES == 32 * 2**20
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    assert "one memo of arrays, 32 MiB in all" in readme
    assert "the newest array is always kept" in readme
    # every module-level dict the session grew is a memo (`_sieve` names the
    # memo of `field`), and the reset empties it
    grown = [key for key, d in _module_dicts().items() if len(d) > before.get(key, 0)]
    assert set(grown) == {("idealfunc.field", "_CUM_CACHE"), ("idealfunc.field", "_REACHES"),
                          ("idealfunc._sieve", "_CUM_CACHE"), ("idealfunc.field", "_TABLE_FIELDS")}
    assert _sieve._CUM_CACHE is field_module._CUM_CACHE
    # the memo holds the primes, the characters and the report constants (0-d
    # arrays) beside the per-field arrays, and those are all the arrays held
    keys = [name for _, name in field_module._CUM_CACHE]
    assert "primes" in keys and any(name[0] == "chi" for name in keys if isinstance(name, tuple))
    assert any(a.shape == () for a in kept)
    assert {key for key, ids in _held_arrays().items() if ids != constants.get(key)} == \
        {("idealfunc.field", "_CUM_CACHE"), ("idealfunc._sieve", "_CUM_CACHE")}
    field_module.clear_cache()
    assert [key for key in grown if _module_dicts()[key]] == []
    # and once it is reset, the package holds no array but those it held at import
    assert _held_arrays() == constants


def test_report_bad_grid():
    for grid in ("10", "100:10:3", "0:10:3", "a:b:c"):
        code, _, err = run_cli(["report", "--field", "q", "--theorem", "1",
                                "--order", "2", "--grid", grid])
        assert code == 1, grid
    # non-finite ends, and several points between equal ends or ends whose
    # geometric points round to equal floats, are grid errors
    for grid in ("nan:1e3:3", "1:inf:3", "1e3:1e3:3", "1e3:1.0000000000000002e3:3"):
        code, out, err = run_cli(["report", "--field", "q", "--theorem", "1",
                                  "--order", "2", "--grid", grid])
        assert_one_line_error(code, out, err)
        assert err.startswith(f"error: bad grid {grid!r}"), err


def test_report_grid_past_memory_is_refused_before_it_is_built(monkeypatch):
    grid = "1:1e12:1000000000000"
    fake_physical_memory(monkeypatch, 8 * 2**30)
    start = time.perf_counter()
    code, out, err = run_cli(["report", "--field", "q", "--theorem", "1",
                              "--order", "2", "--grid", grid])
    assert time.perf_counter() - start < 1.0
    assert_one_line_error(code, out, err)
    assert err == (f"error: bad grid {grid!r}: 1000000000000 points: about 2000 bytes "
                   "per grid point exceed the 8.0 GiB of physical memory\n")


def test_report_constants_need_only_the_character_in_memory(monkeypatch, fresh_memos):
    # c_F sums one period of the character in fixed-size blocks, so a report
    # over q:-1000003 is refused only where its character (3 bytes per
    # residue) does not fit, and answers in 16 MiB as `sum` does (the
    # fixture empties the memo, where the character is kept)
    fake_physical_memory(monkeypatch, 2 * 2**20)
    code, out, err = run_cli(["report", "--field", "q:-1000003", "--theorem", "0",
                              "--grid", "1000:10000:2"])
    assert_one_line_error(code, out, err)
    assert err == ("error: discriminant -1000003 is too large to tabulate its character: "
                   "about 3 bytes per residue exceed the 0.0 GiB of physical memory\n")
    fake_physical_memory(monkeypatch, 16 * 2**20)
    rows = {"0": ["q:-1000003,R,0,1000,337,329.8667338,7.133266173,x^((d-1)/(d+1));d=2,"
                  "0.7133266173",
                  "q:-1000003,R,0,10000,3308,3298.667338,9.332661728,x^((d-1)/(d+1));d=2,"
                  "0.4331837846"],
            "1": ["q:-1000003,M,2,1000,277,271.6715643,5.328435693,x^(1/2)*log(x),0.02439286349",
                  "q:-1000003,M,2,10000,2703,2716.715643,-13.71564307,x^(1/2)*log(x),"
                  "-0.01489157025"]}
    for theorem, expected in rows.items():
        code, out, err = run_cli(["report", "--field", "q:-1000003", "--theorem", theorem,
                                  "--order", "2", "--grid", "1000:10000:2"])
        assert (code, err) == (0, "")
        assert out.splitlines() == [CSV_HEADER] + expected
    code, out, err = run_cli(["sum", "--field", "q:-1000003", "--fn", "mobius", "--order", "2",
                              "--x", "1e5"])
    assert (code, out, err) == (0, "27125\n", "")


def test_unreadable_table_path_exits_with_one_line(tmp_path):
    for path in (tmp_path / "missing.table", tmp_path):
        code, out, err = run_cli(["field", "--field", f"table:{path}"])
        assert_one_line_error(code, out, err)
        assert f"cannot read prime table {path}" in err


def test_quadratic_field_past_the_discriminant_bound_is_refused_at_once():
    start = time.perf_counter()
    code, out, err = run_cli(["field", "--field", "q:" + "7" * 40])
    assert time.perf_counter() - start < 1.0
    assert_one_line_error(code, out, err)
    assert "discriminant passes 2^62" in err


def _readme_examples():
    """The `idealfunc ...` lines of README's CLI and plotting blocks, with
    the N of each `# -> N` comment (None where there is none)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = []
    for section in ("## CLI", "## Sweeps for plotting"):
        block = readme.split(section, 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        for line in block.splitlines():
            command, _, comment = line.partition("#")
            expected = comment.split("->", 1)[1].strip() if "->" in comment else None
            prog, *argv = command.split()
            assert prog == "idealfunc", line
            examples.append((argv, expected))
    return examples


def test_readme_examples_run():
    examples = _readme_examples()
    assert len(examples) >= 13
    for argv, expected in examples:
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)
        if expected is not None:
            assert out.strip() == expected, argv


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


def test_zeta_without_finite_tail_bound_refused(fresh_memos):
    for spec in ("q", "q:-1"):
        # s = 1.002 is accepted, but the tail bound at the default cutoff overflows
        code, out, err = run_cli(["zeta", "--field", spec, "--s", "1.002"])
        assert_one_line_error(code, out, err)
        assert "s = 1.002" in err and "prime cutoff 100000" in err
        assert "math range error" not in err
        # the refusal names the least s that answers: it does, and the float
        # below it does not
        least = err.rsplit("s >= ", 1)[1].split()[0]
        assert 1.002 < float(least) < 1.01
        code, out, err = run_cli(["zeta", "--field", spec, "--s", least])
        assert code == 0 and json.loads(out)["tail_bound"] < math.inf, err
        below = repr(math.nextafter(float(least), 1.0))
        code, out, err = run_cli(["zeta", "--field", spec, "--s", below])
        assert_one_line_error(code, out, err)
        assert f"s >= {least} " in err


@pytest.mark.parametrize("tol, least", [("1e-300", "1.0027161041423927"),
                                         (None, "1.0027367581132114")])
def test_zeta_refusal_bisects_on_the_bound(tol, least, fresh_memos, monkeypatch):
    # the least s that answers, at the largest and the default cutoff; the
    # bisection takes about 50 steps, each computing the product once
    from idealfunc import analytic

    products = []
    euler_value = analytic._euler_value
    monkeypatch.setattr(analytic, "_euler_value",
                        lambda norms, s: products.append(s) or euler_value(norms, s))
    argv = ["zeta", "--field", "q", "--s", "1.002"] + (["--tol", tol] if tol else [])
    code, out, err = run_cli(argv)
    assert_one_line_error(code, out, err)
    assert f"s >= {least} answers at this cutoff" in err
    assert len(set(products)) == len(products) <= 64


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


# stdout of `verify` recorded before prime-ideal labels became plain tuples; a
# change of label representation must leave it byte-identical
PINNED_VERIFY = {
    ("q:-1", "identities", "300"): """\
ok   |mu_1(A)| = sum of mu_1(D) over D^2 | A  [q:-1]  tested=237
ok   |mu_2(A)| = sum of mu_1(D) over D^3 | A  [q:-1]  tested=237
ok   |mu_3(A)| = sum of mu_1(D) over D^4 | A  [q:-1]  tested=237
ok   |mu_4(A)| = sum of mu_1(D) over D^5 | A  [q:-1]  tested=237
ok   (q_2 * lambda_1)(A) = delta(A)  [q:-1]  tested=237
ok   (q_3 * lambda_2)(A) = delta(A)  [q:-1]  tested=237
ok   (q_4 * lambda_3)(A) = delta(A)  [q:-1]  tested=237
ok   mu_2(A) = sum mu_1(A/D^2) mu_1(A/D) over D^2 | A  [q:-1]  tested=237
ok   mu_3(A) = sum mu_2(A/D^3) mu_2(A/D) over D^3 | A  [q:-1]  tested=237
ok   mu_4(A) = sum mu_3(A/D^4) mu_3(A/D) over D^4 | A  [q:-1]  tested=237
ok   lambda_1(A) = sum mu_1(A/D^2) over D^2 | A  [q:-1]  tested=237
ok   lambda_2(A) = sum mu_1(A/D^3) over D^3 | A  [q:-1]  tested=237
ok   lambda_3(A) = sum mu_1(A/D^4) over D^4 | A  [q:-1]  tested=237
ok   lambda_4(A) = sum mu_1(A/D^5) over D^5 | A  [q:-1]  tested=237
ok   mu_1(A^1) = mu_1(A)  [q:-1]  tested=237
ok   mu_2(A^2) = mu_1(A)  [q:-1]  tested=237
ok   mu_3(A^3) = mu_1(A)  [q:-1]  tested=237
ok   mu_4(A^4) = mu_1(A)  [q:-1]  tested=237
ok   sum mu_1(E)/N(E) over E | A = J_1(A)/N(A)  [q:-1]  tested=237
ok   correlation sum vs signed coprime 2-free count, x=200  [q:-1]  tested=237
ok   correlation sum vs signed coprime 3-free count, x=200  [q:-1]  tested=237
ok   correlation sum vs signed coprime 4-free count, x=200  [q:-1]  tested=237
ok   f(AB) = f(A) f(B) for coprime A, B  [q:-1]  tested=3000
passed identities suite: 0 of 23 checks failed
""",
    ("q:-1", "counting", "2000"): """\
ok   enumerate_ideals size = ideal_count  [q:-1]  tested=5
ok   #(norm n) = sum of chi_D over divisors of n, n <= 2000  [q:-1]  tested=2000
ok   coprime count = sum mu_1(E) [X/N(E)]_F over E | A  [q:-1]  tested=474
ok   k-free inversion formula exact for every x <= 2000, k=2  [q:-1]  tested=2000
ok   k-free inversion formula exact for every x <= 2000, k=3  [q:-1]  tested=2000
passed counting suite: 0 of 5 checks failed
""",
    ("q:5", "identities", "300"): """\
ok   |mu_1(A)| = sum of mu_1(D) over D^2 | A  [q:5]  tested=128
ok   |mu_2(A)| = sum of mu_1(D) over D^3 | A  [q:5]  tested=128
ok   |mu_3(A)| = sum of mu_1(D) over D^4 | A  [q:5]  tested=128
ok   |mu_4(A)| = sum of mu_1(D) over D^5 | A  [q:5]  tested=128
ok   (q_2 * lambda_1)(A) = delta(A)  [q:5]  tested=128
ok   (q_3 * lambda_2)(A) = delta(A)  [q:5]  tested=128
ok   (q_4 * lambda_3)(A) = delta(A)  [q:5]  tested=128
ok   mu_2(A) = sum mu_1(A/D^2) mu_1(A/D) over D^2 | A  [q:5]  tested=128
ok   mu_3(A) = sum mu_2(A/D^3) mu_2(A/D) over D^3 | A  [q:5]  tested=128
ok   mu_4(A) = sum mu_3(A/D^4) mu_3(A/D) over D^4 | A  [q:5]  tested=128
ok   lambda_1(A) = sum mu_1(A/D^2) over D^2 | A  [q:5]  tested=128
ok   lambda_2(A) = sum mu_1(A/D^3) over D^3 | A  [q:5]  tested=128
ok   lambda_3(A) = sum mu_1(A/D^4) over D^4 | A  [q:5]  tested=128
ok   lambda_4(A) = sum mu_1(A/D^5) over D^5 | A  [q:5]  tested=128
ok   mu_1(A^1) = mu_1(A)  [q:5]  tested=128
ok   mu_2(A^2) = mu_1(A)  [q:5]  tested=128
ok   mu_3(A^3) = mu_1(A)  [q:5]  tested=128
ok   mu_4(A^4) = mu_1(A)  [q:5]  tested=128
ok   sum mu_1(E)/N(E) over E | A = J_1(A)/N(A)  [q:5]  tested=128
ok   correlation sum vs signed coprime 2-free count, x=200  [q:5]  tested=128
ok   correlation sum vs signed coprime 3-free count, x=200  [q:5]  tested=128
ok   correlation sum vs signed coprime 4-free count, x=200  [q:5]  tested=128
ok   f(AB) = f(A) f(B) for coprime A, B  [q:5]  tested=1233
passed identities suite: 0 of 23 checks failed
""",
    ("q:5", "counting", "2000"): """\
ok   enumerate_ideals size = ideal_count  [q:5]  tested=5
ok   #(norm n) = sum of chi_D over divisors of n, n <= 2000  [q:5]  tested=2000
ok   coprime count = sum mu_1(E) [X/N(E)]_F over E | A  [q:5]  tested=258
ok   k-free inversion formula exact for every x <= 2000, k=2  [q:5]  tested=2000
ok   k-free inversion formula exact for every x <= 2000, k=3  [q:5]  tested=2000
passed counting suite: 0 of 5 checks failed
""",
}


@pytest.mark.parametrize("spec, suite, xmax", sorted(PINNED_VERIFY))
def test_verify_output_pinned(spec, suite, xmax):
    code, out, _ = run_cli(["verify", "--field", spec, "--suite", suite, "--xmax", xmax])
    assert code == 0 and out == PINNED_VERIFY[spec, suite, xmax]


# stdout of `verify` at edge sizes, recorded before the suites ran on exponent
# rows in numpy: corr_x = 200 past xmax, so the correlation sums stream their
# B on their own; the unit ideal alone; J_6 past int64 in the multiplicativity
# check; and a counting suite of one k-free order
PINNED_VERIFY_EDGES = {
    ('--field', 'q:-5', '--suite', 'identities', '--xmax', '150'): """\
ok   |mu_1(A)| = sum of mu_1(D) over D^2 | A  [q:-5]  tested=216
ok   |mu_2(A)| = sum of mu_1(D) over D^3 | A  [q:-5]  tested=216
ok   |mu_3(A)| = sum of mu_1(D) over D^4 | A  [q:-5]  tested=216
ok   |mu_4(A)| = sum of mu_1(D) over D^5 | A  [q:-5]  tested=216
ok   (q_2 * lambda_1)(A) = delta(A)  [q:-5]  tested=216
ok   (q_3 * lambda_2)(A) = delta(A)  [q:-5]  tested=216
ok   (q_4 * lambda_3)(A) = delta(A)  [q:-5]  tested=216
ok   mu_2(A) = sum mu_1(A/D^2) mu_1(A/D) over D^2 | A  [q:-5]  tested=216
ok   mu_3(A) = sum mu_2(A/D^3) mu_2(A/D) over D^3 | A  [q:-5]  tested=216
ok   mu_4(A) = sum mu_3(A/D^4) mu_3(A/D) over D^4 | A  [q:-5]  tested=216
ok   lambda_1(A) = sum mu_1(A/D^2) over D^2 | A  [q:-5]  tested=216
ok   lambda_2(A) = sum mu_1(A/D^3) over D^3 | A  [q:-5]  tested=216
ok   lambda_3(A) = sum mu_1(A/D^4) over D^4 | A  [q:-5]  tested=216
ok   lambda_4(A) = sum mu_1(A/D^5) over D^5 | A  [q:-5]  tested=216
ok   mu_1(A^1) = mu_1(A)  [q:-5]  tested=216
ok   mu_2(A^2) = mu_1(A)  [q:-5]  tested=216
ok   mu_3(A^3) = mu_1(A)  [q:-5]  tested=216
ok   mu_4(A^4) = mu_1(A)  [q:-5]  tested=216
ok   sum mu_1(E)/N(E) over E | A = J_1(A)/N(A)  [q:-5]  tested=216
ok   correlation sum vs signed coprime 2-free count, x=200  [q:-5]  tested=216
ok   correlation sum vs signed coprime 3-free count, x=200  [q:-5]  tested=216
ok   correlation sum vs signed coprime 4-free count, x=200  [q:-5]  tested=216
ok   f(AB) = f(A) f(B) for coprime A, B  [q:-5]  tested=3000
passed identities suite: 0 of 23 checks failed
""",
    ('--field', 'q:2', '--suite', 'identities', '--xmax', '150'): """\
ok   |mu_1(A)| = sum of mu_1(D) over D^2 | A  [q:2]  tested=92
ok   |mu_2(A)| = sum of mu_1(D) over D^3 | A  [q:2]  tested=92
ok   |mu_3(A)| = sum of mu_1(D) over D^4 | A  [q:2]  tested=92
ok   |mu_4(A)| = sum of mu_1(D) over D^5 | A  [q:2]  tested=92
ok   (q_2 * lambda_1)(A) = delta(A)  [q:2]  tested=92
ok   (q_3 * lambda_2)(A) = delta(A)  [q:2]  tested=92
ok   (q_4 * lambda_3)(A) = delta(A)  [q:2]  tested=92
ok   mu_2(A) = sum mu_1(A/D^2) mu_1(A/D) over D^2 | A  [q:2]  tested=92
ok   mu_3(A) = sum mu_2(A/D^3) mu_2(A/D) over D^3 | A  [q:2]  tested=92
ok   mu_4(A) = sum mu_3(A/D^4) mu_3(A/D) over D^4 | A  [q:2]  tested=92
ok   lambda_1(A) = sum mu_1(A/D^2) over D^2 | A  [q:2]  tested=92
ok   lambda_2(A) = sum mu_1(A/D^3) over D^3 | A  [q:2]  tested=92
ok   lambda_3(A) = sum mu_1(A/D^4) over D^4 | A  [q:2]  tested=92
ok   lambda_4(A) = sum mu_1(A/D^5) over D^5 | A  [q:2]  tested=92
ok   mu_1(A^1) = mu_1(A)  [q:2]  tested=92
ok   mu_2(A^2) = mu_1(A)  [q:2]  tested=92
ok   mu_3(A^3) = mu_1(A)  [q:2]  tested=92
ok   mu_4(A^4) = mu_1(A)  [q:2]  tested=92
ok   sum mu_1(E)/N(E) over E | A = J_1(A)/N(A)  [q:2]  tested=92
ok   correlation sum vs signed coprime 2-free count, x=200  [q:2]  tested=92
ok   correlation sum vs signed coprime 3-free count, x=200  [q:2]  tested=92
ok   correlation sum vs signed coprime 4-free count, x=200  [q:2]  tested=92
ok   f(AB) = f(A) f(B) for coprime A, B  [q:2]  tested=1666
passed identities suite: 0 of 23 checks failed
""",
    ('--field', 'q', '--suite', 'identities', '--xmax', '1'): """\
ok   |mu_1(A)| = sum of mu_1(D) over D^2 | A  [q]  tested=1
ok   |mu_2(A)| = sum of mu_1(D) over D^3 | A  [q]  tested=1
ok   |mu_3(A)| = sum of mu_1(D) over D^4 | A  [q]  tested=1
ok   |mu_4(A)| = sum of mu_1(D) over D^5 | A  [q]  tested=1
ok   (q_2 * lambda_1)(A) = delta(A)  [q]  tested=1
ok   (q_3 * lambda_2)(A) = delta(A)  [q]  tested=1
ok   (q_4 * lambda_3)(A) = delta(A)  [q]  tested=1
ok   mu_2(A) = sum mu_1(A/D^2) mu_1(A/D) over D^2 | A  [q]  tested=1
ok   mu_3(A) = sum mu_2(A/D^3) mu_2(A/D) over D^3 | A  [q]  tested=1
ok   mu_4(A) = sum mu_3(A/D^4) mu_3(A/D) over D^4 | A  [q]  tested=1
ok   lambda_1(A) = sum mu_1(A/D^2) over D^2 | A  [q]  tested=1
ok   lambda_2(A) = sum mu_1(A/D^3) over D^3 | A  [q]  tested=1
ok   lambda_3(A) = sum mu_1(A/D^4) over D^4 | A  [q]  tested=1
ok   lambda_4(A) = sum mu_1(A/D^5) over D^5 | A  [q]  tested=1
ok   mu_1(A^1) = mu_1(A)  [q]  tested=1
ok   mu_2(A^2) = mu_1(A)  [q]  tested=1
ok   mu_3(A^3) = mu_1(A)  [q]  tested=1
ok   mu_4(A^4) = mu_1(A)  [q]  tested=1
ok   sum mu_1(E)/N(E) over E | A = J_1(A)/N(A)  [q]  tested=1
ok   correlation sum vs signed coprime 2-free count, x=200  [q]  tested=1
ok   correlation sum vs signed coprime 3-free count, x=200  [q]  tested=1
ok   correlation sum vs signed coprime 4-free count, x=200  [q]  tested=1
ok   f(AB) = f(A) f(B) for coprime A, B  [q]  tested=1
passed identities suite: 0 of 23 checks failed
""",
    ('--field', 'q:-1', '--suite', 'identities', '--xmax', '60', '--kmax', '6'): """\
ok   |mu_1(A)| = sum of mu_1(D) over D^2 | A  [q:-1]  tested=46
ok   |mu_2(A)| = sum of mu_1(D) over D^3 | A  [q:-1]  tested=46
ok   |mu_3(A)| = sum of mu_1(D) over D^4 | A  [q:-1]  tested=46
ok   |mu_4(A)| = sum of mu_1(D) over D^5 | A  [q:-1]  tested=46
ok   |mu_5(A)| = sum of mu_1(D) over D^6 | A  [q:-1]  tested=46
ok   |mu_6(A)| = sum of mu_1(D) over D^7 | A  [q:-1]  tested=46
ok   (q_2 * lambda_1)(A) = delta(A)  [q:-1]  tested=46
ok   (q_3 * lambda_2)(A) = delta(A)  [q:-1]  tested=46
ok   (q_4 * lambda_3)(A) = delta(A)  [q:-1]  tested=46
ok   (q_5 * lambda_4)(A) = delta(A)  [q:-1]  tested=46
ok   (q_6 * lambda_5)(A) = delta(A)  [q:-1]  tested=46
ok   mu_2(A) = sum mu_1(A/D^2) mu_1(A/D) over D^2 | A  [q:-1]  tested=46
ok   mu_3(A) = sum mu_2(A/D^3) mu_2(A/D) over D^3 | A  [q:-1]  tested=46
ok   mu_4(A) = sum mu_3(A/D^4) mu_3(A/D) over D^4 | A  [q:-1]  tested=46
ok   mu_5(A) = sum mu_4(A/D^5) mu_4(A/D) over D^5 | A  [q:-1]  tested=46
ok   mu_6(A) = sum mu_5(A/D^6) mu_5(A/D) over D^6 | A  [q:-1]  tested=46
ok   lambda_1(A) = sum mu_1(A/D^2) over D^2 | A  [q:-1]  tested=46
ok   lambda_2(A) = sum mu_1(A/D^3) over D^3 | A  [q:-1]  tested=46
ok   lambda_3(A) = sum mu_1(A/D^4) over D^4 | A  [q:-1]  tested=46
ok   lambda_4(A) = sum mu_1(A/D^5) over D^5 | A  [q:-1]  tested=46
ok   lambda_5(A) = sum mu_1(A/D^6) over D^6 | A  [q:-1]  tested=46
ok   lambda_6(A) = sum mu_1(A/D^7) over D^7 | A  [q:-1]  tested=46
ok   mu_1(A^1) = mu_1(A)  [q:-1]  tested=46
ok   mu_2(A^2) = mu_1(A)  [q:-1]  tested=46
ok   mu_3(A^3) = mu_1(A)  [q:-1]  tested=46
ok   mu_4(A^4) = mu_1(A)  [q:-1]  tested=46
ok   mu_5(A^5) = mu_1(A)  [q:-1]  tested=46
ok   mu_6(A^6) = mu_1(A)  [q:-1]  tested=46
ok   sum mu_1(E)/N(E) over E | A = J_1(A)/N(A)  [q:-1]  tested=46
ok   correlation sum vs signed coprime 2-free count, x=200  [q:-1]  tested=46
ok   correlation sum vs signed coprime 3-free count, x=200  [q:-1]  tested=46
ok   correlation sum vs signed coprime 4-free count, x=200  [q:-1]  tested=46
ok   correlation sum vs signed coprime 5-free count, x=200  [q:-1]  tested=46
ok   correlation sum vs signed coprime 6-free count, x=200  [q:-1]  tested=46
ok   f(AB) = f(A) f(B) for coprime A, B  [q:-1]  tested=692
passed identities suite: 0 of 35 checks failed
""",
    ('--field', 'q:2', '--suite', 'counting', '--xmax', '300', '--kmax', '2'): """\
ok   enumerate_ideals size = ideal_count  [q:2]  tested=5
ok   #(norm n) = sum of chi_D over divisors of n, n <= 300  [q:2]  tested=300
ok   coprime count = sum mu_1(E) [X/N(E)]_F over E | A  [q:2]  tested=384
ok   k-free inversion formula exact for every x <= 300, k=2  [q:2]  tested=300
passed counting suite: 0 of 4 checks failed
""",
}


@pytest.mark.parametrize("argv", sorted(PINNED_VERIFY_EDGES))
def test_verify_output_pinned_at_edge_sizes(argv):
    code, out, _ = run_cli(["verify", *argv])
    assert code == 0 and out == PINNED_VERIFY_EDGES[argv]


def test_verify_refuses_orders_whose_powers_pass_the_norm_limit():
    # mu_k(A^k) needs A^k, past 2^62 once N(A)^k is: the largest norm of
    # Z[i] up to 60 is 58 = 7^2 + 3^2, and 58^10 < 2^62 < 58^11
    argv = ["verify", "--field", "q:-1", "--suite", "identities", "--xmax", "60"]
    code, out, err = run_cli([*argv, "--kmax", "64"])
    assert_one_line_error(code, out, err)
    assert err == "error: kmax 64 needs A^64 for ideals of norm up to 58, past 2^62\n"
    code, out, err = run_cli([*argv, "--kmax", "11"])
    assert_one_line_error(code, out, err)
    assert err == "error: kmax 11 needs A^11 for ideals of norm up to 58, past 2^62\n"
    code, out, err = run_cli([*argv, "--kmax", "10"])
    assert code == 0 and err == ""
    assert out.endswith("passed identities suite: 0 of 59 checks failed\n")


@pytest.mark.parametrize("suite", ["identities", "counting"])
@pytest.mark.parametrize("xmax", ["0", "-3"])
def test_verify_refuses_xmax_below_1(suite, xmax):
    # a suite over no ideal would pass having tested nothing
    code, out, err = run_cli(["verify", "--field", "q:-1", "--suite", suite, "--xmax", xmax])
    assert_one_line_error(code, out, err)
    assert err == "error: xmax must be >= 1\n"


def test_sum_fast_and_sum_take_one_path_on_a_table_field(tmp_path, fresh_memos, monkeypatch):
    # --fast is accepted and changes nothing: the same bytes from the same sieves
    path = tmp_path / "qi.table"
    path.write_text(_table_text(primes_up_to(20_000).tolist(), True))
    sieve = _sieve.coefficient_array
    for k, x in (("2", "1"), ("2", "19999"), ("3", "7000")):
        argv = ["sum", "--field", f"table:{path}", "--fn", "qfree", "--order", k, "--x", x]
        runs = []
        for fast in ((), ("--fast",)):
            _sieve.clear_cache()
            calls = []
            monkeypatch.setattr(_sieve, "coefficient_array", lambda *args:
                                calls.append(args[1:]) or sieve(*args))
            runs.append((run_cli([*argv, *fast]), calls))
        assert runs[0] == runs[1] and runs[0][0][0] == 0, (k, x)


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


@pytest.mark.parametrize("x", ["1e16", "1e300"])
def test_sum_refuses_x_beyond_physical_memory(x):
    # only x the preflight refuses: M_2 over q:-1 takes 20 bytes per unit of
    # sqrt(x) for its count table and 100 for its k-full rows, which must
    # exceed physical memory
    assert 120 * float(x) ** 0.5 > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    code, out, err = run_cli(["sum", "--field", "q:-1", "--fn", "mobius", "--order", "2",
                              "--x", x])
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "physical memory" in err


@pytest.mark.parametrize("argv", [
    ["sum", "--field", "q", "--fn", "mobius", "--order", "2", "--x", "1e16"],
    ["sum", "--field", "q", "--fn", "qfree", "--order", "2", "--x", "1e17"],
])
def test_sum_refuses_rows_past_memory_before_building(argv, monkeypatch, fresh_memos):
    # the k-full rows of M_2 take about 100 bytes and the k-free rows of Q_2
    # about 34 per unit of sqrt(x): past 8 GiB here, so the preflight refuses
    # before either is built
    fake_physical_memory(monkeypatch, 8 * 2**30)

    def build(*args):
        raise AssertionError("rows built before the preflight")

    monkeypatch.setattr(_sublinear, "_kfull", build)
    monkeypatch.setattr(_sieve, "coefficient_array", build)
    code, out, err = run_cli(argv)
    assert_one_line_error(code, out, err)
    assert "physical memory" in err


def test_sum_answers_orders_3_over_q_at_1e18(monkeypatch, fresh_memos):
    # their rows reach 10^6 = (10^18)^(1/3): far inside 8 GiB
    fake_physical_memory(monkeypatch, 8 * 2**30)
    for fn, want in (("qfree", "831907372580707771"), ("mobius", "744695497906067477")):
        code, out, err = run_cli(["sum", "--field", "q", "--fn", fn, "--order", "3",
                                  "--x", "1e18"])
        assert (code, out.strip(), err) == (0, want, ""), fn


def test_counting_suite_over_q_refuses_its_count_table_past_memory(monkeypatch, fresh_memos):
    # over Q the ideal counts are an arange, not a sieve: they have their own check
    fake_physical_memory(monkeypatch, 8 * 2**30)
    code, out, err = run_cli(["verify", "--field", "q", "--suite", "counting",
                              "--xmax", str(10**12)])
    assert_one_line_error(code, out, err)
    assert err == ("error: x = 1e+12 is too large to sieve: about 17 bytes per norm exceed "
                   "the 8.0 GiB of physical memory\n")


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
    # exact values that would never finish: a Jordan totient of 400-digit
    # order, and 10^35 orders of every identity
    ["eval", "--field", "q:-1", "--fn", "jordan", "--order", "9" * 400, "--ideal", "5"],
    ["verify", "--field", "q", "--suite", "identities", "--kmax", str(10**35)],
    # float(k) overflows
    ["constant", "--field", "q", "--order", "9" * 400],
    ["report", "--field", "q", "--theorem", "3", "--order", "9" * 400, "--grid", "10:100:2"],
    # kmax 0 would skip every order-k check and still print "passed"
    ["verify", "--field", "q", "--suite", "counting", "--kmax", "0"],
])
def test_overflow_exits_with_one_line(argv):
    t0 = time.perf_counter()
    assert_one_line_error(*run_cli(argv))
    assert time.perf_counter() - t0 < 1.0


def test_density_constant_at_large_order():
    # every Euler factor at order 1000 rounds to 1.0: skipped, never overflowed
    code, out, _ = run_cli(["constant", "--field", "q:-1", "--order", "1000"])
    assert code == 0 and json.loads(out)["value"] == 1.0
    code, out, _ = run_cli(["report", "--field", "q", "--theorem", "1", "--order", "1000",
                            "--grid", "10:100:2"])
    assert code == 0 and out.splitlines()[1] == "q,M,1000,10,10,10,0,x^(1/1000)*log(x),0"


def test_jordan_order_bound():
    from idealfunc.arith import JORDAN_MAX_BITS

    # J_k = 2^k - 1 at the ramified prime of norm 2 in Z[i]
    code, out, _ = run_cli(["eval", "--field", "q:-1", "--fn", "jordan",
                            "--order", str(JORDAN_MAX_BITS), "--ideal", "2"])
    assert code == 0 and int(out) == 2**JORDAN_MAX_BITS - 1
    assert_one_line_error(*run_cli(["eval", "--field", "q:-1", "--fn", "jordan",
                                     "--order", str(JORDAN_MAX_BITS + 1), "--ideal", "2"]))


@pytest.mark.parametrize("argv, expected", [
    (["--field", "q", "--fn", "mobius", "--order", "1", "--x", "1e9"], "-222"),
    (["--field", "q", "--fn", "qfree", "--order", "2", "--x", "1e10"], "6079270942"),
    (["--field", "q", "--fn", "qfree", "--order", "2", "--x", "1e10", "--fast"], "6079270942"),
    (["--field", "q:-1", "--fn", "mobius", "--order", "2", "--x", "1e9"], "390812897"),
])
def test_sum_beyond_the_sieve(argv, expected):
    # x past the ~4.9e8 where a sieve to x stops fitting in 8 GB
    code, out, _ = run_cli(["sum", *argv])
    assert code == 0 and out.strip() == expected


def _fresh_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def run_fresh(argv):
    """Run `python -m idealfunc` on argv in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "idealfunc", *argv],
                          capture_output=True, text=True, env=_fresh_env(), timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


# peak RSS of that run before the suites ran on exponent rows in numpy:
# 34,004 KiB (2-vCPU Xeon, Python 3.11, numpy 2.4)
VERIFY_5000_MAXRSS_KIB = 34_004


def test_verify_peak_memory_stays_near_its_object_by_object_figure():
    # a wrapper interpreter, so RUSAGE_CHILDREN sees the verify run alone
    wrapper = ("import resource, subprocess, sys; "
               "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True); "
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, sys.executable, "-m", "idealfunc", "verify",
         "--field", "q", "--suite", "identities", "--xmax", "5000"],
        capture_output=True, text=True, env=_fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= VERIFY_5000_MAXRSS_KIB + 5 * 1024


def test_closed_stdout_exits_without_a_traceback():
    # the reader takes one line and closes the pipe while enumerate still writes
    proc = subprocess.Popen([sys.executable, "-m", "idealfunc", "enumerate", "--field", "q",
                             "--xmax", "100000"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=_fresh_env())
    assert proc.stdout.readline() == "norm,factorization\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, "")


def test_python_dash_m_runs_the_cli():
    assert run_fresh(["sum", "--field", "q", "--fn", "qfree", "--order", "2",
                      "--x", "100"]) == (0, "61\n", "")


def test_one_parser_serves_every_query():
    # the parser is built once per process; no query may leave state, such as
    # the --format default of `field` (plain) or `report` (csv), for the next
    report = ["report", "--field", "q", "--theorem", "0", "--grid", "10:100:2"]
    session = [
        report + ["--format", "json"],
        ["field", "--field", "q:-1"],
        ["field", "--field", "q:-1", "--format", "json"],
        report,
        ["sum", "--field", "q", "--fn", "mobius", "--order", "2", "--x", "100", "--bogus"],
        ["sum", "--field", "q", "--fn", "mobius", "--order", "2", "--x", "100"],
        ["enumerate", "--field", "q:-1", "--xmax", "10"],
        ["eval", "--field", "q:-1", "--fn", "jordan", "--order", "1", "--ideal", "5:1"],
        ["verify", "--field", "q", "--suite", "counting", "--xmax", "100", "--kmax", "2"],
        ["zeta", "--field", "q", "--s", "2"],
        ["constant", "--field", "q", "--order", "2"],
    ]
    in_process = [run_cli(argv) for argv in session]
    assert [code for code, _, _ in in_process] == [0] * 4 + [1] + [0] * 6
    assert in_process == [run_fresh(argv) for argv in session]


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
