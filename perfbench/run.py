"""The idealfunc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      every workload in turn

Run from the root of a source checkout; the package is imported from
./src, with no install step.  Each workload is a closed loop with one
client: the next query starts only after the previous one returned.

- bigx-cold: one fresh `idealfunc sum` process per query, all at x = 10^7,
  in a seeded order.  Mostly the per-prime scatter of the coefficient sieve.
- session-mix: one process per pass calls idealfunc.cli.main in-process on a
  seeded stream of 112 queries (sums, --fast sums, table-field sums,
  reports, zeta, constant, eval, verify) whose cache keys outnumber the
  sieve cache.
- brute-verify: one process per pass runs the brute-force verify suites, in
  a seeded order.  Mostly ideal enumeration and pointwise arithmetic, the
  control that sieve work leaves unchanged.  BENCHMARK.json lists only the
  first two, so that each of their runs can last longer on a 2-core machine
  whose speed drifts; brute-verify stays available through --workload and
  perfbench/baseline.py.

A run measures whole passes of the workload, at least two and otherwise as
many as bring the measured time closest to --seconds, and checks every
output against perfbench/golden.json.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs one
untraced pass and then traced passes (see spans.py), and reports per-layer
metrics per pass together with the tracing overhead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 when every output was correct, 1 when some query failed,
and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import gen
from spans import LAYERS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bigx-cold", "session-mix", "brute-verify")
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_CHILD = 2  # after every workload child process
# the end-to-end figures are medians over passes; a bigx-cold pass is ~20 s
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the tracer names `_sieve` spans after the module; metric names start with a letter
METRIC_LAYER = {"_sieve": "sieve"}
ANALYTIC_FNS = ("dedekind_zeta", "residue_c_F", "mobius_density_constant")
# relative slack for float rounding and the 10-digit report format
FLOAT_SLACK = 1e-9


class BenchError(Exception):
    """The benchmark cannot run here (missing source tree, missing goldens)."""


# ---------------------------------------------------------------------------
# children


class Child:
    """One finished child process: exit code, output, wall time, peak RSS."""

    def __init__(self, argv: list[str], env: dict, scratch: Path) -> None:
        with tempfile.TemporaryFile(dir=scratch) as out, \
                tempfile.TemporaryFile(dir=scratch) as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.rc = proc.returncode
            self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
            out.seek(0)
            err.seek(0)
            self.out = out.read().decode()
            self.err = err.read().decode()


def child_env(root: Path, trace_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("IDEALFUNC_THREADS", None)
    env.pop("PERFBENCH_TRACE", None)
    if trace_dir is not None:
        env["PERFBENCH_TRACE"] = str(trace_dir)
    return env


def child_argv(mode: str, *args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), mode, *args]


# ---------------------------------------------------------------------------
# golden comparison


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol + FLOAT_SLACK * max(1.0, abs(b))


def _report_matches(out: str, golden: dict) -> bool:
    rows, grows = out.splitlines(), golden["out"].splitlines()
    if len(rows) != len(grows) or rows[:1] != grows[:1]:
        return False
    for row, grow in zip(rows[1:], grows[1:]):
        c, g = row.split(","), grow.split(",")
        exact = (0, 1, 2, 3, 4, 7)  # field, fn, k, x, raw and normalizer
        if len(c) != len(g) or [c[i] for i in exact] != [g[i] for i in exact]:
            return False
        main, rem, norm = (float(v) for v in (c[5], c[6], c[8]))
        gmain, grem, gnorm = (float(v) for v in (g[5], g[6], g[8]))
        # both main terms lie within rtol of the true value
        tol = 2.0 * golden["rtol"] * abs(gmain)
        if not (_close(main, gmain, tol) and _close(rem, grem, tol)):
            return False
        scale = abs(grem / gnorm) if gnorm else 1.0
        if not _close(norm, gnorm, tol / scale):
            return False
    return True


def _analytic_matches(out: str, golden: dict) -> bool:
    v, g = json.loads(out), json.loads(golden["out"])
    return (v["method"] == g["method"]
            and _close(v["value"], g["value"], v["tail_bound"] + g["tail_bound"]))


def output_ok(query: tuple, out: str, goldens: dict) -> str | None:
    """None when `out` matches the golden output of `query`, else a reason."""
    golden = goldens.get(" ".join(query))
    if golden is None:
        return "no golden output for this query"
    try:
        if query[0] == "report":
            ok = _report_matches(out, golden)
        elif query[0] in ("zeta", "constant"):
            ok = _analytic_matches(out, golden)
        else:
            ok = out == golden["out"]
    except (ValueError, KeyError, ZeroDivisionError):
        ok = False
    return None if ok else f"output {out[:120]!r} differs from golden {golden['out'][:120]!r}"


# ---------------------------------------------------------------------------
# workloads


class Tally:
    """Per-run record of queries: latencies, failures and norm throughput."""

    def __init__(self, goldens: dict) -> None:
        self.goldens = goldens
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.norms = 0
        self.norm_s = 0.0
        self.checks = 0
        self.peak_rss_mb = 0.0

    def record(self, query: tuple, rc: int, out: str, err: str, seconds: float) -> None:
        self.attempted += 1
        reason = f"exit code {rc}: {err.strip()[-300:]}" if rc != 0 else \
            output_ok(query, out, self.goldens)
        if reason is not None:
            self.failed += 1
            print(f"FAILED: idealfunc {' '.join(query)}: {reason}", file=sys.stderr)
            return
        self.latencies.append(seconds)
        if query[0] == "sum":
            self.norms += int(query[query.index("--x") + 1])
            self.norm_s += seconds
        if query[0] == "verify":
            self.checks += sum(int(w.split("=", 1)[1]) for w in out.split()
                               if w.startswith("tested="))

    def child_failed(self, queries: list[tuple], child: Child) -> None:
        for q in queries:
            self.record(q, child.rc if child.rc != 0 else -1, "", child.err, 0.0)


def run_bigx_pass(queries, env, scratch, tally: Tally, between) -> float:
    """One child per query; returns the summed wall time of the children."""
    wall = 0.0
    for q in queries:
        child = Child(child_argv("cli", *q), env, scratch)
        wall += child.wall_s
        tally.peak_rss_mb = max(tally.peak_rss_mb, child.peak_rss_mb)
        tally.record(q, child.rc, child.out, child.err, child.wall_s)
        between()
    return wall


def run_session_pass(queries, env, scratch, tally: Tally, between) -> float:
    """One child for the whole stream; returns its wall time."""
    stream_file = scratch / "stream.json"
    stream_file.write_text(json.dumps(queries))
    child = Child(child_argv("session", str(stream_file)), env, scratch)
    between()
    tally.peak_rss_mb = max(tally.peak_rss_mb, child.peak_rss_mb)
    results = [json.loads(line) for line in child.out.splitlines() if line.startswith("{")]
    for q, r in zip(queries, results):
        tally.record(q, r["rc"], r["out"], r["err"], r["s"])
    if child.rc != 0 or len(results) != len(queries):
        print(f"FAILED: session process exited {child.rc} after {len(results)} of "
              f"{len(queries)} queries: {child.err.strip()[-500:]}", file=sys.stderr)
        tally.child_failed(queries[len(results):], child)
    return child.wall_s


QUERIES_OF = {"bigx-cold": gen.bigx_order, "session-mix": gen.session_stream,
              "brute-verify": gen.verify_order}


class Workload:
    """Passes of one workload; pass i runs the queries in the order of (seed, i)."""

    def __init__(self, name: str, seed: int, out_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.passes = 0

    def run_pass(self, env: dict, tally: Tally, between=lambda: None) -> float:
        """Wall time of the pass's child processes; `between` runs after each
        child and is not part of the pass."""
        queries = QUERIES_OF[self.name](self.seed, self.passes)
        self.passes += 1
        run = run_bigx_pass if self.name == "bigx-cold" else run_session_pass
        return run(queries, env, self.out_dir, tally, between)


class Setup:
    """Wall times of fresh interpreters running `idealfunc field --field q`.

    The probes are spread over the run (a few before the first pass, a few
    after every child process of a pass), so that their median averages over
    the machine's slower and faster spells, which last a few seconds, rather
    than sampling one of them.
    """

    def __init__(self, env: dict, scratch: Path, goldens: dict) -> None:
        self.env, self.scratch = env, scratch
        self.tally = Tally(goldens)
        Child(child_argv("cli", *gen.SETUP_QUERY), env, scratch)  # warm the bytecode cache

    def probe(self, n: int = SETUP_PROBES_PER_CHILD) -> None:
        for _ in range(n):
            child = Child(child_argv("cli", *gen.SETUP_QUERY), self.env, self.scratch)
            self.tally.record(gen.SETUP_QUERY, child.rc, child.out, child.err, child.wall_s)

    def median(self) -> float:
        if not self.tally.latencies:
            raise BenchError("`idealfunc field --field q` failed; see the lines above")
        return statistics.median(self.tally.latencies)


def run_passes(work: Workload, env: dict, seconds: float, tally: Tally,
               min_passes: int, setup: Setup | None = None) -> list[float]:
    """At least `min_passes` whole passes, then more while one more pass would
    bring the measured time closer to `seconds`.  Set-up probes run between
    the child processes of a pass and are not part of it."""
    walls: list[float] = []
    t0 = perf_counter()
    while len(walls) < min_passes or perf_counter() - t0 + walls[-1] / 2 < seconds:
        walls.append(work.run_pass(env, tally, setup.probe if setup else lambda: None))
    return walls


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def end_to_end(setup_s: float, walls: list[float], tally: Tally, per_pass: int) -> dict:
    """The metrics BENCHMARK.json lists: medians over passes and probes.
    norms_per_s counts `sum` queries only and is left out when there are none."""
    wall = statistics.median(walls)
    m = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "queries_per_s": (per_pass / wall, "1/s"),
        "norms_per_s": (tally.norms / tally.norm_s if tally.norm_s else None, "1/s"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }
    return {k: v for k, v in m.items() if v[0] is not None}


def merge_dumps(paths: list[Path]) -> dict:
    total = {"self_s": {}, "groups": {}, "coefficient_xmax": [], "cumulative_miss_xmax": [],
             "cumulative_hits": 0, "ideals_enumerated": 0, "import_s": 0.0}
    for path in paths:
        d = json.loads(path.read_text())
        for name, s in d["self_s"].items():
            total["self_s"][name] = total["self_s"].get(name, 0.0) + s
        for name, (calls, s) in d["groups"].items():
            g = total["groups"].setdefault(name, [0, 0.0])
            g[0] += calls
            g[1] += s
        for key in ("coefficient_xmax", "cumulative_miss_xmax"):
            total[key] += d[key]
        for key in ("cumulative_hits", "ideals_enumerated", "import_s"):
            total[key] += d[key]
    return total


def per_layer(d: dict, passes: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics per pass, from the merged span aggregates of a run."""

    def metric_name(name: str) -> str:
        layer, _, rest = name.partition(".")
        return ".".join(filter(None, (METRIC_LAYER.get(layer, layer), rest)))

    def incl(name):
        return d["groups"].get(name, [0, 0.0])[1] / passes

    def calls(name):
        return d["groups"].get(name, [0, 0.0])[0] / passes

    def self_s(prefix):
        return sum(s for n, s in d["self_s"].items()
                   if n == prefix or n.startswith(prefix + ".")) / passes

    xs = d["coefficient_xmax"]
    flags = gen.prime_flags(max(xs, default=1))
    cum_calls = calls("_sieve.cumulative_array")
    hits = d["cumulative_hits"] / passes
    m = {
        "_sieve.coefficient_array.s": (incl("_sieve.coefficient_array"), "s"),
        "_sieve.coefficient_array.calls": (calls("_sieve.coefficient_array"), "count"),
        "_sieve.norms_sieved": (sum(xs) / passes, "count"),
        "_sieve.primes_visited": (sum(flags.count(1, 0, x + 1) for x in xs) / passes, "count"),
        "_sieve.bytes_computed": (
            8 * sum(x + 1 for x in xs + d["cumulative_miss_xmax"]) / passes, "B"),
        "_sieve.cumulative_array.self_s": (self_s("_sieve.cumulative_array"), "s"),
        "_sieve.cumulative_array.calls": (cum_calls, "count"),
        "_sieve.cache_hit_ratio": (hits / cum_calls if cum_calls else 0.0, "1"),
        "field.primes_up_to.s": (incl("field.primes_up_to"), "s"),
        "field.parse_field.s": (incl("field.parse_field"), "s"),
    }
    for fn in ANALYTIC_FNS:
        m[f"analytic.{fn}.s"] = (incl(f"analytic.{fn}"), "s")
        m[f"analytic.{fn}.calls"] = (calls(f"analytic.{fn}"), "count")
    m.update({
        "summatory.qfree_count_fast.s": (incl("summatory.qfree_count_fast"), "s"),
        "ideals.enumerate_ideals.s": (incl("ideals.enumerate_ideals"), "s"),
        "ideals.ideals_enumerated": (d["ideals_enumerated"] / passes, "count"),
        "ideals.ideal_count.s": (incl("ideals.ideal_count"), "s"),
        "arith.pointwise.s": (incl("arith.pointwise"), "s"),
        "arith.pointwise.calls": (calls("arith.pointwise"), "count"),
        "verify.identity_suite.self_s": (self_s("verify.identity_suite"), "s"),
        "verify.counting_suite.self_s": (self_s("verify.counting_suite"), "s"),
        "cli.import_s": (d["import_s"] / passes, "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "1")
    return {metric_name(k): v for k, v in m.items()}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 goldens: dict) -> dict:
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    table = root / gen.TABLE_PATH
    table.parent.mkdir(parents=True, exist_ok=True)
    table.write_text(gen.qi_table(seed))
    work = Workload(name, seed, out_dir)
    env = child_env(root)
    setup = Setup(env, out_dir, goldens)
    setup.probe(SETUP_PROBES_FIRST)
    tally = Tally(goldens)
    if not trace:
        walls = run_passes(work, env, seconds, tally, MIN_PASSES, setup)
        metrics = end_to_end(setup.median(), walls, tally, len(QUERIES_OF[name](seed, 0)))
        # Printed and recorded, but not in BENCHMARK.json, which lists only
        # metrics that every workload reports steadily.  The percentiles rest
        # on 8 to 12 samples of 3 or 4 query kinds on bigx-cold and
        # brute-verify; failed_frac is 0 on correct code (failures are
        # counted in "failed").
        lat = tally.latencies or [0.0]
        extra = {"query_p50_s": (statistics.median(lat), "s"),
                 "query_p90_s": (percentile(lat, 90), "s"),
                 "failed_frac": (tally.failed / tally.attempted, "1"),
                 "passes": (len(walls), "count"),
                 "query_samples": (len(tally.latencies), "count"),
                 "setup_samples": (len(setup.tally.latencies), "count")}
        if name == "brute-verify":
            extra["checks_per_s"] = (tally.checks / sum(walls), "1/s")
    else:
        t0 = perf_counter()
        untraced = work.run_pass(env, tally)
        trace_dir = Path(tempfile.mkdtemp(dir=out_dir, prefix="trace-"))
        walls = run_passes(work, child_env(root, trace_dir),
                           seconds - (perf_counter() - t0), tally, 1)
        dumps = sorted(trace_dir.glob("*.json"))
        metrics = per_layer(merge_dumps(dumps), len(walls), statistics.median(walls), untraced)
        for path in dumps:
            path.unlink()
        trace_dir.rmdir()
        extra = {"passes": (len(walls), "count")}
    setup.median()  # raises when every probe failed
    attempted = tally.attempted + setup.tally.attempted
    failed = tally.failed + setup.tally.failed
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "extra": extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "idealfunc" / "cli.py").is_file():
            raise BenchError(f"no idealfunc source tree under {root / 'src'}; "
                             "run from the root of a checkout")
        golden_file = HERE / "golden.json"
        if not golden_file.is_file():
            raise BenchError(f"missing {golden_file}")
        goldens = json.loads(golden_file.read_text())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), root, goldens)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env_info = environment()
    for name, res in results.items():
        for metric, (value, unit) in {**res["metrics"], **res["extra"]}.items():
            print(f"{name:13s} {metric:34s} {value:14.6g} {unit}")
    print("environment " + json.dumps(env_info))
    if len(results) == 1:
        res = next(iter(results.values()))
    else:
        res = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{m}": v for n, r in results.items()
                           for m, v in r["metrics"].items()}}
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in res["metrics"].items()},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
