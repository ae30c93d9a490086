"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of the checkout (the children import ./src).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gen
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDENS = json.loads((run.HERE / "golden.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# cheap queries covering every command, the table field and a failing one
SMALL_STREAM = [
    list(gen.SETUP_QUERY),
    ["sum", "--field", "q:-1", "--fn", "mobius", "--order", "2", "--x", "5000"],
    ["sum", "--field", "q:5", "--fn", "qfree", "--order", "3", "--x", "3000", "--fast"],
    ["sum", "--field", gen.TABLE_FIELD, "--fn", "liouville", "--order", "2", "--x", "2000"],
    ["report", "--field", "q:-5", "--theorem", "1", "--order", "2", "--grid", "100:2000:3"],
    ["zeta", "--field", "q:2", "--s", "2.0"],
    ["constant", "--field", "q", "--order", "3"],
    ["eval", "--field", "q:-1", "--fn", "jordan", "--order", "2", "--ideal", "25"],
    ["enumerate", "--field", "q:-5", "--xmax", "30"],
    ["verify", "--field", "q:-1", "--suite", "identities", "--xmax", "150"],
    ["sum", "--field", "q", "--fn", "mobius", "--order", "2", "--x", "0"],
]


@pytest.fixture(scope="module")
def out_dir():
    path = ROOT / ".bench_out"
    path.mkdir(exist_ok=True)
    table = ROOT / gen.TABLE_PATH
    table.write_text(gen.qi_table(7))
    stream = path / "test-stream.json"
    stream.write_text(json.dumps(SMALL_STREAM))
    return path


def _session(out_dir: Path, trace_dir: Path | None):
    child = run.Child(run.child_argv("session", str(out_dir / "test-stream.json")),
                      run.child_env(ROOT, trace_dir), out_dir)
    assert child.rc == 0, child.err
    return child, [json.loads(line) for line in child.out.splitlines()]


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def test_reported_metrics_match_the_spec():
    tally = run.Tally(GOLDENS)
    q = gen.BIGX_QUERIES[0]
    tally.record(q, 0, GOLDENS[" ".join(q)]["out"], "", 5.0)
    e2e = run.end_to_end(0.2, [1.0, 1.1], tally, 1)
    assert [(k, u) for k, (_, u) in e2e.items()] == \
        [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    dump = run.merge_dumps([])
    layer = run.per_layer(dump, 1, 2.0, 1.0)
    assert [(k, u) for k, (_, u) in layer.items()] == \
        [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def test_outputs_identical_with_and_without_tracing(out_dir, tmp_path):
    _, plain = _session(out_dir, None)
    _, traced = _session(out_dir, tmp_path)
    assert [(r["rc"], r["out"], r["err"]) for r in plain] == \
        [(r["rc"], r["out"], r["err"]) for r in traced]
    assert plain[-1]["rc"] == 1 and all(r["rc"] == 0 for r in plain[:-1])


def test_layer_self_times_within_pass_wall(out_dir, tmp_path):
    child, _ = _session(out_dir, tmp_path)
    dumps = list(tmp_path.glob("*.json"))
    assert len(dumps) == 1
    merged = run.merge_dumps(dumps)
    m = run.per_layer(merged, 1, child.wall_s, child.wall_s)
    layer_self = [m[f"{run.METRIC_LAYER.get(layer, layer)}.self_s"][0] for layer in run.LAYERS]
    assert all(s > 0 for s in layer_self), layer_self
    assert sum(layer_self) <= child.wall_s
    # aliases are wrapped: primes_up_to is reached through _sieve and field
    assert m["field.primes_up_to.s"][0] > 0
    assert m["ideals.ideals_enumerated"][0] > 0
    assert m["arith.pointwise.calls"][0] > 0
    assert m["verify.identity_suite.self_s"][0] > 0
    hits = m["sieve.cache_hit_ratio"][0]
    assert 0 < hits < 1


def test_norms_count_sum_queries_only():
    tally = run.Tally(GOLDENS)
    for q, seconds in ((gen.BIGX_QUERIES[0], 4.0), (gen.VERIFY_QUERIES[0], 1.0)):
        tally.record(q, 0, GOLDENS[" ".join(q)]["out"], "", seconds)
    assert (tally.norms, tally.norm_s) == (10**7, 4.0)
    assert "norms_per_s" not in run.end_to_end(0.2, [1.0], run.Tally(GOLDENS), 1)


def test_tracer_bookkeeping_is_charged_to_no_span(monkeypatch):
    # every clock read costs one unit and every bookkeeping step three
    clock = [0.0]

    def tick():
        clock[0] += 1.0
        return clock[0]

    def costly(step):
        def slowed(*args):
            clock[0] += 3.0
            return step(*args)
        return slowed

    monkeypatch.setattr(spans, "perf_counter", tick)
    tracer = spans.Tracer()
    tracer._enter = costly(tracer._enter)
    tracer._exit = costly(tracer._exit)

    def leaf():
        clock[0] += 10.0

    def parent():
        clock[0] += 100.0
        for _ in range(5):
            wrapped_leaf()

    for fn in (leaf, parent):
        fn.__module__ = "idealfunc.field"
    wrapped_leaf = tracer.wrap(leaf)
    tracer.wrap(parent)()
    # a span's time holds its work and the clock read that ends it; a parent
    # also holds the first clock read of each child's wrapper, and nothing
    # else of the bookkeeping
    assert tracer.self_s == {"field.leaf": 5 * 11.0, "field.parent": 100.0 + 1 + 5}
    assert tracer.groups["field.parent"][:2] == [1, 161.0]
    assert tracer.groups["field"][:2] == [1, 161.0]
    assert tracer.groups["field.leaf"][:2] == [5, 55.0]


def _in_fresh_process(code: str) -> dict:
    """Run `code` with the package and the benchmark importable; return the
    JSON object it prints last."""
    env = run.child_env(ROOT)
    env["PYTHONPATH"] += run.os.pathsep + str(run.HERE)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_self_time_close_to_untraced_time():
    # a prime-ideal listing makes two wrapped calls per prime, a few
    # microseconds apart; the field layer's traced self time should still be
    # the untraced time of the same calls.  Untraced and traced calls
    # alternate, by swapping the module's bindings, so that both see the
    # same spells of the machine's varying speed.
    code = """
        import json
        from time import perf_counter
        import idealfunc.field as field
        import spans

        F = field.parse_field("q:-5")

        def timed():
            t0 = perf_counter()
            field.primes_with_norm_up_to(F, 300_000)
            return perf_counter() - t0

        plain = dict(vars(field))
        tracer = spans.Tracer()
        spans.install(tracer)
        traced = dict(vars(field))
        untraced, selfs = [], []
        for _ in range(5):
            vars(field).update(plain)
            untraced.append(timed())
            vars(field).update(traced)
            before = sum(tracer.self_s.values())
            timed()
            selfs.append(sum(tracer.self_s.values()) - before)
        print(json.dumps(min(selfs) / min(untraced)))
    """
    ratios = [_in_fresh_process(code) for _ in range(3)]
    assert any(0.75 < r < 1.25 for r in ratios), ratios


def test_cache_hits_are_read_from_the_cache(tmp_path):
    # over Q the count prefix sums are built without a coefficient array
    d = _in_fresh_process("""
        import json
        import idealfunc.field as field
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        import idealfunc._sieve as sieve
        q = field.parse_field("q")
        for x in (1000, 500, 2000):
            sieve.cumulative_array(q, "count", 1, x)
        sieve.cumulative_array(field.parse_field("q:-1"), "mobius", 2, 800)
        print(json.dumps(tracer.dump()))
    """)
    assert d["cumulative_hits"] == 1
    assert d["cumulative_miss_xmax"] == [1000, 2000, 800]
    assert d["coefficient_xmax"] == [800]
    dump = tmp_path / "dump.json"
    dump.write_text(json.dumps({**d, "import_s": 0.0}))
    m = run.per_layer(run.merge_dumps([dump]), 1, 1.0, 1.0)
    assert m["sieve.bytes_computed"][0] == 8 * (1001 + 2001 + 801 + 801)
    assert m["sieve.cache_hit_ratio"][0] == 0.25


def test_corrupted_golden_is_a_failure(capsys):
    goldens = json.loads(json.dumps(GOLDENS))
    q = gen.BIGX_QUERIES[0]
    out = goldens[" ".join(q)]["out"]
    goldens[" ".join(q)]["out"] = str(int(out) + 1) + "\n"
    tally = run.Tally(goldens)
    tally.record(q, 0, out, "", 1.0)
    assert (tally.attempted, tally.failed, tally.latencies) == (1, 1, [])
    assert "FAILED" in capsys.readouterr().err


def test_golden_tolerances():
    report = gen.report_query("q:-1", 1, 2, gen.REPORT_GRIDS[0])
    zeta = gen.zeta_query("q:5", "2")
    for q in (report, zeta, gen.BIGX_QUERIES[1]):
        assert run.output_ok(q, GOLDENS[" ".join(q)]["out"], GOLDENS) is None
    rows = GOLDENS[" ".join(report)]["out"].splitlines()
    cells = rows[1].split(",")
    cells[4] = str(int(cells[4]) + 1)  # raw sums are exact
    bad = "\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n"
    assert run.output_ok(report, bad, GOLDENS) is not None
    z = json.loads(GOLDENS[" ".join(zeta)]["out"])
    z["value"] += 3 * z["tail_bound"]
    assert run.output_ok(zeta, json.dumps(z) + "\n", GOLDENS) is not None
    z["value"] -= 2.5 * z["tail_bound"]
    assert run.output_ok(zeta, json.dumps(z) + "\n", GOLDENS) is None
    assert run.output_ok(("sum", "--x", "1"), "1\n", GOLDENS) is not None


@pytest.mark.parametrize("seed", range(12))
def test_every_generated_query_has_a_golden(seed):
    queries = gen.session_stream(seed) + gen.bigx_order(seed) + gen.verify_order(seed)
    assert len(gen.session_stream(seed)) >= 100
    missing = [q for q in queries if " ".join(q) not in GOLDENS]
    assert not missing


def test_generator_is_seeded():
    assert gen.session_stream(3) == gen.session_stream(3)
    assert gen.session_stream(3) != gen.session_stream(4)
    assert gen.qi_table(3) == gen.qi_table(3) != gen.qi_table(4)
    assert sorted(gen.bigx_order(5)) == sorted(gen.BIGX_QUERIES)


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bigx-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "error:" in proc.stderr
