"""Per-layer measurement for the pellzero benchmark: a span tracer that
wraps pellzero's public functions from outside the package, and probes
that time single layer operations on fixed inputs.

Each pellzero module is a layer (ball, bigseq, zerostruct, spectra,
effbounds, reduction, cli).  The tracer replaces every public function in
every pellzero namespace that binds it (``reduction`` binds ``solve_roots``
and ``eval_gk``, ``effbounds`` binds ``eval_gk`` and ``mahler_measure``, and
so on) and the public methods and arithmetic dunders of pellzero classes,
including the aliases ``Ball.__radd__`` and ``Ball.__rmul__``.  Spans are
kept in memory as parallel arrays and written out when the run ends.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

ARITH_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__"})

# (name, unit) of every per-layer metric, in report order.
METRICS = [
    ("ball.ops", "count"),
    ("ball.mul.calls", "count"),
    ("ball.add.calls", "count"),
    ("ball.div.calls", "count"),
    ("ball.cmp.calls", "count"),
    ("ball.self_s", "s"),
    ("ball.mul_us.p128", "us"),
    ("ball.mul_us.p390", "us"),
    ("ball.add_us.p128", "us"),
    ("ball.gt_us.p128", "us"),
    ("ball.log_us.p128", "us"),
    ("bigseq.value.calls", "count"),
    ("bigseq.self_s", "s"),
    ("bigseq.step_us", "us"),
    ("zerostruct.enumerate_zeros.s", "s"),
    ("zerostruct.indices_scanned", "count"),
    ("zerostruct.variant_zero_set.s", "s"),
    ("zerostruct.self_s", "s"),
    ("spectra.solve_roots.calls", "count"),
    ("spectra.solve_roots.s", "s"),
    ("spectra.solve_roots.escalated", "count"),
    ("spectra.check_dominant_bounds.s", "s"),
    ("spectra.check_root_bounds.s", "s"),
    ("spectra.self_s", "s"),
    ("effbounds.s", "s"),
    ("effbounds.self_s", "s"),
    ("reduction.odd_k_reduce.s", "s"),
    ("reduction.dp_reduce.s", "s"),
    ("reduction.cf_expand.calls", "count"),
    ("reduction.attempts", "count"),
    ("reduction.refine_solves", "count"),
    ("reduction.self_s", "s"),
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _count_indices(counts, args, result):
    counts["zerostruct.indices_scanned"] += 1 - args["floor"]


def _count_escalation(counts, args, result):
    counts["spectra.solve_roots.escalated"] += result.prec > args["target_prec"]


def _count_attempts(counts, args, result):
    counts["reduction.attempts"] += result.attempts


# Counters that need a call's arguments or result, keyed by span name.
HOOKS = {
    "zerostruct.enumerate_zeros": _count_indices,
    "spectra.solve_roots": _count_escalation,
    "reduction.odd_k_reduce": _count_attempts,
}


class Tracer:
    """Records a span per call of a wrapped pellzero function while
    ``active`` is set; calls outside an order (the gate, the probes) pass
    straight through."""

    def __init__(self):
        self.names: list[str] = []
        self._layer_of: list[int] = []
        self._layers: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.order = array("i")
        # 1 when no span of the same name (layer) encloses this one, so
        # inclusive times sum without double counting recursion.
        self.outer_name = array("b")
        self.outer_layer = array("b")
        self._stack: list[int] = []
        self._open_names = Counter()
        self._open_layers = Counter()
        self.counts = Counter()
        self.active = False
        self.order_id = -1
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _intern(self, name: str) -> int:
        layer = name.split(".", 1)[0]
        if layer not in self._layers:
            self._layers.append(layer)
        self.names.append(name)
        self._layer_of.append(self._layers.index(layer))
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        i = len(self.start)
        lid = self._layer_of[nid]
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.order.append(self.order_id)
        self.outer_name.append(self._open_names[nid] == 0)
        self.outer_layer.append(self._open_layers[lid] == 0)
        self._open_names[nid] += 1
        self._open_layers[lid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, nid: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._open_names[nid] -= 1
        self._open_layers[self._layer_of[nid]] -= 1

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i, nid)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound.arguments, result)
            return result
        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap pellzero's public functions and methods in place."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pellzero" or name.startswith("pellzero.")]
        wrappers: dict = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith("pellzero."):
                    if value not in wrappers:
                        layer = value.__module__.split(".")[1]
                        wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                    self._set(mod, attr, wrappers[value])
                elif (inspect.isclass(value) and value.__module__ == mod.__name__
                      and not issubclass(value, BaseException)):
                    self._install_class(mod.__name__.split(".")[1], value)

    def _install_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITH_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(name, raw.__func__)))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent span
        index (-1 at the top), order id (the k being run)."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\torder\n")
            for nid, s, e, p, o in zip(self.name_id, self.start, self.end,
                                       self.parent, self.order):
                fh.write(f"{self.names[nid]}\t{s:.9f}\t{e:.9f}\t{p}\t{o}\n")

    def metrics(self) -> dict:
        """Per-layer counts and times derived from the recorded spans."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = Counter()
        inclusive = Counter()
        layer_inclusive = Counter()
        layer_self = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            layer = name.split(".", 1)[0]
            calls[name] += 1
            if self.outer_name[i]:
                inclusive[name] += dur[i]
            if self.outer_layer[i]:
                layer_inclusive[layer] += dur[i]
            layer_self[layer] += dur[i] - child[i]

        def ball_calls(*methods):
            return sum(calls[f"ball.Ball.{m}"] for m in methods)

        refine_solves = 0
        for i in range(n):
            if self.names[self.name_id[i]] != "spectra.solve_roots":
                continue
            p = self.parent[i]
            while p >= 0 and self.names[self.name_id[p]] != "reduction.odd_k_reduce":
                p = self.parent[p]
            refine_solves += p >= 0

        return {
            "ball.ops": sum(c for name, c in calls.items() if name.startswith("ball.Ball.")),
            "ball.mul.calls": ball_calls("__mul__", "__rmul__"),
            "ball.add.calls": ball_calls("__add__", "__radd__"),
            "ball.div.calls": ball_calls("__truediv__", "__rtruediv__"),
            "ball.cmp.calls": ball_calls("gt", "lt", "contains"),
            "ball.self_s": layer_self["ball"],
            "bigseq.value.calls": calls["bigseq.KContext.value"],
            "bigseq.self_s": layer_self["bigseq"],
            "zerostruct.enumerate_zeros.s": inclusive["zerostruct.enumerate_zeros"],
            "zerostruct.indices_scanned": self.counts["zerostruct.indices_scanned"],
            "zerostruct.variant_zero_set.s": inclusive["zerostruct.variant_zero_set"],
            "zerostruct.self_s": layer_self["zerostruct"],
            "spectra.solve_roots.calls": calls["spectra.solve_roots"],
            "spectra.solve_roots.s": inclusive["spectra.solve_roots"],
            "spectra.solve_roots.escalated": self.counts["spectra.solve_roots.escalated"],
            "spectra.check_dominant_bounds.s": inclusive["spectra.check_dominant_bounds"],
            "spectra.check_root_bounds.s": inclusive["spectra.check_root_bounds"],
            "spectra.self_s": layer_self["spectra"],
            "effbounds.s": layer_inclusive["effbounds"],
            "effbounds.self_s": layer_self["effbounds"],
            "reduction.odd_k_reduce.s": inclusive["reduction.odd_k_reduce"],
            "reduction.dp_reduce.s": inclusive["reduction.dp_reduce"],
            "reduction.cf_expand.calls": calls["reduction.cf_expand"],
            "reduction.attempts": self.counts["reduction.attempts"],
            "reduction.refine_solves": refine_solves,
            "reduction.self_s": layer_self["reduction"],
            "cli.main.s": inclusive["cli.main"],
            "cli.self_s": layer_self["cli"],
        }


# -- probes -------------------------------------------------------------

def _us_per_call(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean time of one call, in microseconds."""
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(per_call)


def probes() -> dict:
    """Time single operations of the public Ball and KContext API on fixed
    inputs: complex products at 128 and 390 bits (the verify and the odd
    reduction working precisions), and a real add, compare and log."""
    import mpmath as mp
    from pellzero.ball import Ball
    from pellzero.bigseq import KContext

    def complex_ball(prec):
        i = Ball.exact(mp.mpc(0, 1), prec)
        return Ball.exact(Fraction(2, 3), prec) + i * Ball.exact(Fraction(1, 7), prec)

    def step_us():
        t0 = time.perf_counter()
        KContext(40).value(-50_000)
        return (time.perf_counter() - t0) / 50_000 * 1e6

    z128, w128 = complex_ball(128), complex_ball(128).conjugate()
    z390, w390 = complex_ball(390), complex_ball(390).conjugate()
    x, y = Ball.exact(Fraction(2, 3), 128), Ball.exact(Fraction(5, 7), 128)
    return {
        "ball.mul_us.p128": _us_per_call(lambda: z128 * w128, 1000),
        "ball.mul_us.p390": _us_per_call(lambda: z390 * w390, 1000),
        "ball.add_us.p128": _us_per_call(lambda: x + y, 1000),
        "ball.gt_us.p128": _us_per_call(lambda: y.gt(x), 1000),
        "ball.log_us.p128": _us_per_call(x.log, 500),
        "bigseq.step_us": statistics.median(step_us() for _ in range(3)),
    }
