"""Outside-in layer tracing for the dcsp sweep benchmark.

Spans are recorded by wrapping, from the outside, the public callables that
the caller modules (``dcsp.cli``, ``dcsp.experiments``, ``dcsp.pursuit``)
import from the layer modules.  Wrap targets are found by ``__module__``, not
by name, so a function that a refactor adds, renames or deletes is traced
or dropped without a change here; a layer whose functions are gone reports
0 calls.  Nothing under ``src/`` is edited: :func:`traced` swaps the module
attributes and restores them on exit.

A span's self time is its duration minus the time of the spans it caused.
Pool workers trace themselves and return their counts with each result; the
counts are merged when the parent unpickles the result.  Worker spans are
roots of their own, so in a ``--jobs 2`` sweep the parent's ``run_sweep``
self time is the time it waited for the pool, and layer seconds add up the
busy time of both workers.

This module imports no numpy, so the benchmark can pin BLAS threads before
numpy loads.
"""

import contextlib
import functools
import importlib
import os
import time
import types

LAYERS = ("problems", "linalg", "network", "pursuit", "experiments")
CALLERS = ("cli", "experiments", "pursuit")
POOL_NAME = "ProcessPoolExecutor"

# Per-process tracer a pool worker reports into (see _traced_call).
_active = None


class Tracer:
    """Span, count and run statistics of one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.stack = []  # one [child_seconds] cell per open span
        self.spans = {}  # key -> [calls, self_s, total_s]
        self.counts = {}  # key -> number
        self.runs = []  # (seconds, iterations, hit_cap, wire_scalars) per pursuit run

    # -- recording ---------------------------------------------------------

    def span_cell(self, key):
        return self.spans.setdefault(key, [0, 0.0, 0.0])

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, key, fn, observe=None):
        """``fn`` recording a span under ``key``; ``observe`` sees each call."""
        cell = self.span_cell(key)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                cell[0] += 1
                cell[1] += dt - children[0]
                cell[2] += dt
            if observe is not None:
                observe(self, dt, args, kwargs, result)
            return result

        traced_call.__wrapped_by_tracer__ = True
        return traced_call

    # -- shipping counts out of a worker -------------------------------------

    def reset(self):
        """Drop what a forked worker inherited from its parent."""
        self.pid = os.getpid()
        del self.stack[:]
        self.take()

    def take(self):
        """Statistics recorded since the last call, then zeroed.

        Zeroed in place, because the wrappers hold the span cells.
        """
        delta = {
            "spans": {k: list(c) for k, c in self.spans.items() if c[0]},
            "counts": dict(self.counts),
            "runs": list(self.runs),
        }
        for cell in self.spans.values():
            cell[:] = [0, 0.0, 0.0]
        self.counts.clear()
        del self.runs[:]
        return delta

    def merge(self, delta):
        # Runs in the executor's result thread while the main thread waits on
        # the pool and closes no span, so the updates do not interleave.
        for key, (calls, self_s, total_s) in delta["spans"].items():
            cell = self.span_cell(key)
            cell[0] += calls
            cell[1] += self_s
            cell[2] += total_s
        for key, value in delta["counts"].items():
            self.add(key, value)
        self.runs.extend(delta["runs"])


# ---------------------------------------------------------------------------
# what each wrapped call contributes besides its span


def _arg(args, kwargs, position, name):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def _shape(a):
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        raise ValueError("not a matrix")
    batch = 1
    for n in shape[:-2]:
        batch *= int(n)
    return batch, int(shape[-2]), int(shape[-1])


def _qr_solve_work(m, k):
    """Reduced Householder QR with explicit Q, Q^T y and back substitution."""
    flops = 4 * m * k * k - 4 * k**3 // 3 + 2 * m * k + k * k
    words = 2 * m * k + k * k + m + k  # A and Q, R, y, coefficients
    return flops, 8 * words


def _work_lstsq(args, kwargs):
    b, m, k = _shape(_arg(args, kwargs, 0, "A"))
    flops, nbytes = _qr_solve_work(m, k)
    return b * flops, b * nbytes


def _work_resid(args, kwargs):
    b, m, k = _shape(_arg(args, kwargs, 1, "A"))
    flops, nbytes = _qr_solve_work(m, k)
    # plus y - A c: one more pass over A, the product and the difference
    return b * (flops + 2 * m * k + m), b * (nbytes + 8 * (m * k + 2 * m))


def _work_correlate(args, kwargs):
    b, m, n = _shape(_arg(args, kwargs, 0, "A"))
    return b * (2 * m * n + n), b * 8 * (m * n + m + n)


WORK_MODELS = {
    "linalg.lstsq": _work_lstsq,
    "linalg.resid": _work_resid,
    "linalg.correlate": _work_correlate,
}


def _observe_linalg(model):
    def observe(tracer, dt, args, kwargs, result):
        try:
            flops, nbytes = model(args, kwargs)
        except (TypeError, ValueError, IndexError):
            return  # a signature this model does not know: count no work
        tracer.add("linalg.flops_computed", flops)
        tracer.add("linalg.bytes_computed", nbytes)

    return observe


def _observe_network(tracer, dt, args, kwargs, result):
    # fabric rounds return one inbox per node; topology builders do not
    if isinstance(result, list):
        tracer.add("network.deliveries", sum(len(box) for box in result if hasattr(box, "__len__")))


def _observe_pursuit(tracer, dt, args, kwargs, result):
    iterations = getattr(result, "iterations", None)
    if iterations is None:
        return
    wire = getattr(getattr(result, "wire", None), "total", 0)
    tracer.runs.append((dt, int(iterations), bool(getattr(result, "hit_max_iters", False)), int(wire)))


def _observer(key, layer):
    if key in WORK_MODELS:
        return _observe_linalg(WORK_MODELS[key])
    if layer == "network":
        return _observe_network
    if layer == "pursuit":
        return _observe_pursuit
    return None


# ---------------------------------------------------------------------------
# installing the wrappers


def _layer_of(obj):
    module = getattr(obj, "__module__", "") or ""
    prefix, _, layer = module.rpartition(".")
    return layer if prefix == "dcsp" and layer in LAYERS else None


def wrap_targets():
    """(caller module, attribute name, layer) for every traced callable."""
    targets = []
    for caller in CALLERS:
        try:
            module = importlib.import_module(f"dcsp.{caller}")
        except ModuleNotFoundError:  # a caller merged away: its callees show under another
            continue
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            layer = _layer_of(obj)
            if layer is not None:
                targets.append((module, name, layer))
    return targets


class _Carry:
    """A worker's result that merges the worker's counts when unpickled."""

    def __init__(self, result, delta):
        self.result = result
        self.delta = delta

    def __reduce__(self):
        return (_merge_carry, (self.result, self.delta))


def _merge_carry(result, delta):
    if _active is not None:
        _active.merge(delta)
    return result


def _traced_call(fn, *args, **kwargs):
    """Run one pool task under this worker's tracer and ship its counts."""
    global _active
    if _active is None:  # a worker started fresh (spawn or forkserver)
        _active = Tracer()
        _patch(_active)
    elif _active.pid != os.getpid():  # a forked worker: drop the parent's spans
        _active.reset()
    call = _active.wrap("experiments.pool_worker", fn)
    result = call(*args, **kwargs)
    return _Carry(result, _active.take())


def _traced_pool(base):
    class TracedPool(base):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(functools.partial(_traced_call, fn), *args, **kwargs)

    TracedPool.__name__ = TracedPool.__qualname__ = f"Traced{base.__name__}"
    return TracedPool


def _patch(tracer):
    """Wrap every target; returns the (module, name, original) swaps made."""
    swaps = []
    for module, name, layer in wrap_targets():
        fn = getattr(module, name)
        if getattr(fn, "__wrapped_by_tracer__", False):
            continue
        key = f"{layer}.{name}"
        setattr(module, name, tracer.wrap(key, fn, _observer(key, layer)))
        swaps.append((module, name, fn))
    experiments = importlib.import_module("dcsp.experiments")
    pool = getattr(experiments, POOL_NAME, None)
    if isinstance(pool, type):
        setattr(experiments, POOL_NAME, _traced_pool(pool))
        swaps.append((experiments, POOL_NAME, pool))
    return swaps


@contextlib.contextmanager
def traced(tracer):
    """Trace the dcsp layers into ``tracer`` for the duration of the block."""
    global _active
    swaps = _patch(tracer)
    _active = tracer
    try:
        yield tracer
    finally:
        _active = None
        for module, name, original in reversed(swaps):
            setattr(module, name, original)


# ---------------------------------------------------------------------------
# reduction to the benchmark's per-layer metrics


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(n):
    """Highest standard percentile with at least ten samples beyond it."""
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return q
    return 50


def layer_table(tracer):
    """Per-function rows: key -> (calls, self_s, total_s)."""
    return {k: tuple(c) for k, c in sorted(tracer.spans.items()) if c[0]}


def summarize(tracer, sweeps, trials):
    """Per-layer metrics per sweep, from ``sweeps`` traced sweeps of ``trials`` trials."""
    spans = {k: c for k, c in tracer.spans.items() if c[0]}

    def self_s(*keys):
        return sum(spans[k][1] for k in keys if k in spans) / sweeps

    def calls(*keys):
        return sum(spans[k][0] for k in keys if k in spans) / sweeps

    def in_layer(layer):
        return [k for k in spans if k.startswith(layer + ".")]

    def count(key):
        return tracer.counts.get(key, 0) / sweeps

    runs = tracer.runs
    times_ms = sorted(r[0] * 1e3 for r in runs)
    tail_q = tail_percentile(len(times_ms))
    select = ("linalg.max_ind", "linalg.max_occ", "linalg.column_submatrix")
    return {
        "problems.generate.s": (self_s("problems.generate"), "s"),
        "problems.generate.calls": (calls("problems.generate"), "count"),
        "problems.draws_per_trial": (calls("problems.generate") / trials, "ratio"),
        "problems.self_s": (self_s(*in_layer("problems")), "s"),
        "linalg.lstsq.s": (self_s("linalg.lstsq"), "s"),
        "linalg.lstsq.calls": (calls("linalg.lstsq"), "count"),
        "linalg.resid.s": (self_s("linalg.resid"), "s"),
        "linalg.resid.calls": (calls("linalg.resid"), "count"),
        "linalg.correlate.s": (self_s("linalg.correlate"), "s"),
        "linalg.correlate.calls": (calls("linalg.correlate"), "count"),
        "linalg.select.s": (self_s(*select), "s"),
        "linalg.select.calls": (calls(*select), "count"),
        "linalg.self_s": (self_s(*in_layer("linalg")), "s"),
        "linalg.flops_computed": (count("linalg.flops_computed"), "flop"),
        "linalg.bytes_computed": (count("linalg.bytes_computed"), "B"),
        "network.fabric.s": (self_s(*in_layer("network")), "s"),
        "network.fabric.calls": (calls(*in_layer("network")), "count"),
        "network.deliveries": (count("network.deliveries"), "count"),
        "network.wire_scalars": (sum(r[3] for r in runs) / sweeps, "count"),
        "pursuit.ssp_run.self_s": (self_s("pursuit.ssp_run"), "s"),
        "pursuit.dcsp_run.self_s": (self_s("pursuit.dcsp_run"), "s"),
        "pursuit.self_s": (self_s(*in_layer("pursuit")), "s"),
        "pursuit.runs": (len(runs) / sweeps, "count"),
        "pursuit.run_ms_p50": (_percentile(times_ms, 50), "ms"),
        "pursuit.run_ms_tail": (_percentile(times_ms, tail_q), "ms"),
        "pursuit.run_ms_tail_pct": (tail_q, "%"),
        "pursuit.iterations": (sum(r[1] for r in runs) / max(1, len(runs)), "iter/run"),
        "pursuit.cap_hits": (sum(r[2] for r in runs) / sweeps, "count"),
        "experiments.run_sweep.self_s": (self_s("experiments.run_sweep"), "s"),
        "experiments.write_tables.s": (self_s("experiments.write_tables"), "s"),
        "experiments.self_s": (self_s(*in_layer("experiments")), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }
