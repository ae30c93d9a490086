"""Child process of the idealfunc benchmark.

    python3 perfbench/child.py cli ARGS...       one CLI invocation, like the
                                                 `idealfunc` console script
    python3 perfbench/child.py session FILE      every query in FILE (a JSON
                                                 list of argument lists),
                                                 in-process through
                                                 idealfunc.cli.main; prints
                                                 one JSON result per query

With PERFBENCH_TRACE=<dir> set, spans are recorded around the public
functions of the package (see spans.py) and their aggregate, with the import
time of idealfunc.cli, is written to <dir>/<pid>.json when the process ends.
"""

from __future__ import annotations

import io
import json
import os
import sys
import traceback
from time import perf_counter


def _session(path: str, main) -> int:
    with open(path) as fh:
        queries = json.load(fh)
    for argv in queries:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            rc = main(argv, out=out, err=err)
        except Exception:  # recorded and counted as a failed query
            rc = -1
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
        print(json.dumps({"rc": rc, "s": dt, "out": out.getvalue(), "err": err.getvalue()}),
              flush=True)
    return 0


def run() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    trace_dir = os.environ.get("PERFBENCH_TRACE")
    t0 = perf_counter()
    import idealfunc.cli as cli

    import_s = perf_counter() - t0
    tracer = None
    if trace_dir:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        if mode == "cli":
            return cli.main(rest)
        if mode == "session":
            return _session(rest[0], cli.main)
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            sys.stdout.flush()
            data = tracer.dump()
            data["import_s"] = import_s
            with open(os.path.join(trace_dir, f"{os.getpid()}.json"), "w") as fh:
                json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(run())
