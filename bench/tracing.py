"""Spans and counters recorded around the package's public functions.

:class:`Tracer` wraps every public function defined in the layer modules
(:data:`LAYERS`) and rebinds each name under which any ``delaylyap``
module can reach the original: ``solver`` calls ``integrate`` by the name
it imported, but ``expm`` through the ``linalg`` module, and the package
namespace re-exports most functions. Nothing inside the package changes;
calls made while no operation is open pass straight through.

A span is ``[name, start, end, parent, op, ok, work]``: ``parent`` indexes
the enclosing span (``-1`` for none), ``ok`` is false when the call
raised, and ``work`` is a per-function size recorded by :data:`WORK_SIZE`
(panels, RK4 steps, ``m**3`` of an ``expm``). Spans stay in memory until
:func:`dump`.

Run as a script, this module is a traced stand-in for
``python -m delaylyap``::

    python3 bench/tracing.py SPANS_OUT OP_ID solve --config c.json --out o
"""

import functools
import importlib
import inspect
import json
import math
import re
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("cli", "config", "solver", "spectrum", "linalg", "quadrature", "sim")
# Layout and norm helpers called tens of thousands of times per command.
# They get no span of their own; their time stays in the caller's self time.
UNTRACED = {"solver.block_sizes", "solver.block_offsets", "linalg.vec",
            "linalg.unvec", "linalg.maxabs", "quadrature.panel_nodes"}
SVD_ENTRY_POINTS = (("numpy.linalg", "svd"), ("scipy.linalg", "svd"),
                    ("scipy.linalg", "svdvals"))

NAME, START, END, PARENT, OP, OK, WORK = range(7)


def _expm_work(bind, result, exc):
    m = np.shape(result if exc is None else bind().arguments["M"])[0]
    return int(m) ** 3


def _panels_work(bind, result, exc):
    return int(bind().arguments.get("panels", 0))


_DIVERGED_AT = re.compile(r"t=([-+0-9.eE]+)")


def _steps_work(bind, result, exc):
    """RK4 steps taken: the trajectory length, or for a run that diverged,
    the divergence time over the step, with the step resolved as
    :func:`delaylyap.sim.simulate` documents it."""
    if exc is None:
        return int(len(result.ts) - 1)
    match = _DIVERGED_AT.search(str(exc))
    if match is None:
        return 0
    args = bind().arguments
    h = float(args["sys"].h)
    dt = args.get("dt")
    if dt is None:
        dt = h / 64 if h > 0 else float(args["T"]) / 2048
    if h > 0:
        dt = h / round(h / dt)
    return int(round(float(match.group(1)) / dt))


def _violated_work(bind, result, exc):
    return int(getattr(result, "verdict", None) == "violated")


# Functions whose spans carry a work size, keyed by qualified name. Each
# takes a zero-argument callable giving the call's bound arguments, the
# result (``None`` if the call raised) and the exception.
WORK_SIZE = {
    "linalg.expm": _expm_work,
    "quadrature.fixed_quad": _panels_work,
    "sim.simulate": _steps_work,
    "spectrum.check": _violated_work,
}


def _bind(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


class Tracer:
    """Records spans of one process. Install, open operations, dump."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._op = None
        self._patched = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the layer functions and the SVD entry points, then rebind
        every name under which package code can reach an original."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module("delaylyap." + layer)
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or layer + "." + name in UNTRACED):
                    continue
                originals[id(fn)] = (fn, self._span_wrapper(layer + "." + name, fn))
        for mod_name, name in SVD_ENTRY_POINTS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, name)
            wrapper = self._count_wrapper("linalg.svd.calls", fn)
            originals[id(fn)] = (fn, wrapper)
            self._set(mod, name, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "delaylyap"
                                   or mod_name.startswith("delaylyap.")):
                continue
            for name, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, name, hit[1])

    def uninstall(self):
        """Restore every rebound name."""
        while self._patched:
            mod, name, original = self._patched.pop()
            setattr(mod, name, original)

    def _set(self, mod, name, value):
        self._patched.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def _span_wrapper(self, qualname, fn):
        work = WORK_SIZE.get(qualname)
        signature = inspect.signature(fn) if work else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer._op, True, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = exc = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                span[OK] = False
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if work is not None:
                    span[WORK] = work(lambda: _bind(signature, args, kwargs),
                                      result, exc)

        return wrapper

    def _count_wrapper(self, counter, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is not None:
                tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- recording ---------------------------------------------------------

    @contextmanager
    def operation(self, op_id):
        """Record calls made inside the block under one root ``op`` span."""
        span = ["op", 0.0, 0.0, -1, op_id, True, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._op = op_id
        span[START] = time.perf_counter()
        try:
            yield
        except BaseException:
            span[OK] = False
            raise
        finally:
            span[END] = time.perf_counter()
            self._op = None
            self._stack.pop()


def dump(spans, counters, path):
    """Write spans and counters as JSON."""
    Path(path).write_text(json.dumps({"spans": spans, "counters": dict(counters)}))


def load(paths):
    """Concatenate dumped traces, shifting parent indices."""
    spans, counters = [], Counter()
    for path in paths:
        data = json.loads(Path(path).read_text())
        base = len(spans)
        for s in data["spans"]:
            s[PARENT] = s[PARENT] + base if s[PARENT] >= 0 else -1
            spans.append(s)
        counters.update(data["counters"])
    return spans, counters


# ---------------------------------------------------------------------------
# Aggregation


def self_times(spans):
    """Duration of each span minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, -math.inf
        for lo, hi in sorted(children.get(i, ())):
            lo = max(lo, reach, s[START])
            hi = min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def _nearest(spans, i, names):
    """Index of the closest proper ancestor of span ``i`` named in ``names``."""
    p = spans[i][PARENT]
    while p >= 0 and spans[p][NAME] not in names:
        p = spans[p][PARENT]
    return p


def _accepted_share(spans, worker, loops):
    """Work of ``worker`` spans kept by their loop over all such work.

    A loop (an adaptive refinement such as ``integrate`` or ``oracle_P``)
    keeps only the work of its last worker call, and none if it raised;
    worker calls outside any loop keep theirs. Zero when there was no work.
    """
    total = kept = 0
    last = {}
    for i, s in enumerate(spans):
        if s[NAME] != worker:
            continue
        total += s[WORK]
        d = _nearest(spans, i, loops)
        if d < 0:
            kept += s[WORK] if s[OK] else 0
        else:
            last[d] = s[WORK]
    kept += sum(w for d, w in last.items() if spans[d][OK])
    return kept / total if total else 0.0


def _doublings(spans, loop, worker):
    """Horizon doublings: worker calls per ``loop`` span beyond the first."""
    calls = Counter(_nearest(spans, i, (loop,))
                    for i, s in enumerate(spans) if s[NAME] == worker)
    calls.pop(-1, None)
    return sum(c - 1 for c in calls.values() if c > 1)


def summarize(spans, counters, ops):
    """Per-layer metrics, every time and count per operation."""
    selfs = self_times(spans)
    layer_self = Counter()
    fn_time, fn_self, fn_calls, fn_work = Counter(), Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        name = s[NAME]
        layer_self[name.split(".")[0]] += selfs[i]
        fn_self[name] += selfs[i]
        fn_calls[name] += 1
        fn_work[name] += s[WORK]
        if _nearest(spans, i, (name,)) < 0:  # outermost, so recursion counts once
            fn_time[name] += s[END] - s[START]

    out = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = layer_self[layer] / ops
    out["config.parse_s"] = fn_time["config.parse_config"] / ops
    for fn in ("assemble", "P_at", "residual_dde", "residual_collapsed",
               "residual_algebraic"):
        out["solver.%s.s" % fn] = fn_time["solver." + fn] / ops
    out["solver.solve_boundary.self_s"] = fn_self["solver.solve_boundary"] / ops
    out["solver.P_at.calls"] = fn_calls["solver.P_at"] / ops
    out["solver.evaluate_omega.calls"] = fn_calls["solver.evaluate_omega"] / ops
    out["spectrum.check.s"] = fn_time["spectrum.check"] / ops
    out["spectrum.violated.count"] = fn_work["spectrum.check"] / ops
    out["linalg.expm.calls"] = fn_calls["linalg.expm"] / ops
    out["linalg.expm.s"] = fn_time["linalg.expm"] / ops
    out["linalg.expm.dim3"] = fn_work["linalg.expm"] / ops
    out["linalg.solve_linear.s"] = fn_time["linalg.solve_linear"] / ops
    out["linalg.svd.calls"] = counters.get("linalg.svd.calls", 0) / ops
    out["quadrature.integrate.calls"] = fn_calls["quadrature.integrate"] / ops
    out["quadrature.panels"] = fn_work["quadrature.fixed_quad"] / ops
    out["quadrature.useful_ratio"] = _accepted_share(
        spans, "quadrature.fixed_quad", ("quadrature.integrate",))
    out["sim.simulate.s"] = fn_time["sim.simulate"] / ops
    out["sim.rk4_steps"] = fn_work["sim.simulate"] / ops
    out["sim.oracle_P.doublings"] = _doublings(spans, "sim.oracle_P", "sim.simulate") / ops
    out["sim.cost_to_go.doublings"] = _doublings(spans, "sim.cost_to_go",
                                                 "sim.simulate") / ops
    out["sim.useful_step_ratio"] = _accepted_share(
        spans, "sim.simulate", ("sim.oracle_P", "sim.cost_to_go"))
    return out


def main(argv):
    """Run one CLI command under a tracer and dump its spans. Returns the
    command's exit code."""
    spans_out, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    tracer.install()
    from delaylyap import cli

    rc = 1
    try:
        with tracer.operation(op_id):
            rc = cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        dump(tracer.spans, tracer.counters, spans_out)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
