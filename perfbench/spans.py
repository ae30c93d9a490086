"""Span recording around the public functions of the idealfunc modules.

`install()` replaces every module-level binding of a public function in the
layer modules, imported aliases included (`_sieve.primes_up_to` is
`field.primes_up_to`), and every function held in a module-level dict (such
as `verify.SUITES`), with a wrapper that records a span.  A span is named
after the module that defines the function, whatever binding it was called
through.  Spans are aggregated in memory as they close:

- per function: self seconds, the span time minus the time covered by
  child spans;
- per function and per group (a layer, or `arith.pointwise`): outermost
  calls and inclusive seconds, so recursion and nested members are not
  counted twice;
- counters at the sieve and enumeration boundaries.  A `cumulative_array`
  call is a cache hit when it returns an array that `_sieve._CUM_CACHE`
  held before the call; every other call computed a prefix-sum array.

The tracer's own bookkeeping is timed too and charged to no span: a parent
is charged the whole wrapper time of each child, bookkeeping included, as
child time, and inclusive seconds leave out the bookkeeping of the spans
nested inside.  What a wrapper spends outside its own clock reads (the call
into the wrapper and the return out of it) is measured once by `calibrate()`
and charged the same way, per child call.

`Tracer.dump()` returns the aggregate as plain JSON data.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import types
from time import perf_counter

LAYERS = ("cli", "field", "ideals", "arith", "analytic", "summatory", "_sieve", "verify")
POINTWISE = frozenset({"mu_k", "mu_1", "lambda_k", "q_k", "jordan_totient"})


class Tracer:
    def __init__(self) -> None:
        # per open span: [child seconds, bookkeeping seconds of nested spans]
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = {}  # function -> self seconds
        self.groups: dict[str, list] = {}  # function or group -> [calls, inclusive_s, depth]
        self.coefficient_xmax: list[int] = []
        self.cumulative_miss_xmax: list[int] = []  # xmax of each prefix sum computed
        self.cumulative_hits = 0
        self.ideals_enumerated = 0
        self.bias = 0.0  # seconds per wrapped call outside the wrapper's clock reads

    def _groups_of(self, layer: str, fname: str) -> tuple[str, ...]:
        name = f"{layer}.{fname}"
        if layer == "arith" and fname in POINTWISE:
            return (name, layer, "arith.pointwise")
        return (name, layer)

    def _enter(self, groups: tuple[str, ...]) -> list[float]:
        for g in groups:
            st = self.groups.setdefault(g, [0, 0.0, 0])
            st[2] += 1
        frame = [0.0, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, name: str, groups: tuple[str, ...], frame: list[float],
              dt: float, new_call: bool) -> None:
        self.stack.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + dt - frame[0]
        for g in groups:
            gs = self.groups[g]
            gs[2] -= 1
            if gs[2] == 0:
                gs[1] += dt - frame[1]
                if new_call:
                    gs[0] += 1

    def _charge_parent(self, frame: list[float], t_outer: float, dt: float) -> None:
        """Charge the whole wrapper time since `t_outer` to the parent as child
        time, and the part of it that was not the call as bookkeeping."""
        if self.stack:
            whole = perf_counter() - t_outer + self.bias
            parent = self.stack[-1]
            parent[0] += whole
            parent[1] += whole - dt + frame[1]

    def wrap(self, fn: types.FunctionType) -> types.FunctionType:
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        groups = self._groups_of(layer, fn.__name__)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per resumption; the call is counted when it finishes
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    t_outer = perf_counter()
                    frame = tracer._enter(groups)
                    t0 = perf_counter()
                    done = True
                    try:
                        item = next(it)
                        done = False
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        tracer._exit(name, groups, frame, dt, done)
                        if not done and name == "ideals.enumerate_ideals":
                            tracer.ideals_enumerated += 1
                        tracer._charge_parent(frame, t_outer, dt)
                    yield item
            return gen_wrapper

        cache = fn.__globals__.get("_CUM_CACHE") if name == "_sieve.cumulative_array" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_outer = perf_counter()
            held = list(cache.values()) if cache is not None else None
            frame = tracer._enter(groups)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                tracer._exit(name, groups, frame, dt, True)
                if name == "_sieve.coefficient_array":
                    tracer.coefficient_xmax.append(int(_arg(fn, args, kwargs, "xmax")))
                elif held is not None:
                    if any(a is result for a in held):
                        tracer.cumulative_hits += 1
                    else:
                        tracer.cumulative_miss_xmax.append(int(_arg(fn, args, kwargs, "xmax")))
                tracer._charge_parent(frame, t_outer, dt)
        return wrapper

    def dump(self) -> dict:
        return {
            "self_s": self.self_s,
            "groups": {g: st[:2] for g, st in self.groups.items()},
            "coefficient_xmax": self.coefficient_xmax,
            "cumulative_miss_xmax": self.cumulative_miss_xmax,
            "cumulative_hits": self.cumulative_hits,
            "ideals_enumerated": self.ideals_enumerated,
        }


def _arg(fn, args, kwargs, pname: str):
    if pname in kwargs:
        return kwargs[pname]
    return args[list(inspect.signature(fn).parameters).index(pname)]


def calibrate(calls: int = 10_000, repeats: int = 3) -> float:
    """Seconds per wrapped call that a parent's self time keeps with
    `bias` = 0: its traced self time less its untraced time, per child call
    of a no-op, the least of `repeats` tries."""

    def noop():
        pass

    def loop(fn):
        for _ in range(calls):
            fn()

    noop.__module__ = loop.__module__ = "idealfunc.calibration"
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        loop(noop)
        plain = perf_counter() - t0
        probe = Tracer()
        probe.wrap(loop)(probe.wrap(noop))
        best = min(best, (probe.self_s["calibration.loop"] - plain) / calls)
    return max(best, 0.0)


def install(tracer: Tracer) -> None:
    """Calibrate `tracer` and wrap the public functions of every layer
    module, in place."""
    tracer.bias = calibrate()
    modules = [importlib.import_module(f"idealfunc.{m}") for m in LAYERS]
    wrapped: dict[types.FunctionType, types.FunctionType] = {}

    def wrapper_for(obj):
        if (isinstance(obj, types.FunctionType) and not obj.__name__.startswith("_")
                and obj.__module__.startswith("idealfunc.")):
            if obj not in wrapped:
                wrapped[obj] = tracer.wrap(obj)
            return wrapped[obj]
        return None

    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") and not isinstance(obj, dict):
                continue
            if isinstance(obj, dict):
                for key, value in list(obj.items()):
                    w = wrapper_for(value)
                    if w is not None:
                        obj[key] = w
            else:
                w = wrapper_for(obj)
                if w is not None:
                    setattr(mod, name, w)
