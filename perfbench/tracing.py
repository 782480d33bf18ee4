"""In-memory span tracing of the racekde layers, installed from outside.

The traced run rebinds public functions and methods of the racekde modules
to thin wrappers that record one span per call: name, start, end, parent
and root (the outermost span of the same caller request). Nothing in
``src/`` is edited; every rebinding is undone by ``Tracer.uninstall``.

Self time of a span is its duration minus the part of its interval that
its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Span record layout: [name, start_ns, end_ns, parent_index, root_index].
Span = List


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.shapes: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else idx
        rec = [name, time.perf_counter_ns(), 0, parent, root]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call (or each step, for a generator) is a span."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with tracer.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    tracer.counts[name + ".items"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def count_calls(self, name: str, fn: Callable) -> Callable:
        """Wrap fn with a call counter only, for calls too many to span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ----------------------------------------------------------- rebinding

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind_function(self, module, attr: str, wrapper_factory: Callable) -> None:
        """Replace module.attr, and every alias of it in the package's
        modules, with wrapper_factory(original)."""
        original = getattr(module, attr)
        wrapped = wrapper_factory(original)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapped)

    def rebind_method(self, cls, attr: str, wrapper_factory: Callable) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(wrapper_factory(raw.__func__)))
        else:
            self._set(cls, attr, wrapper_factory(raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -------------------------------------------------------------- output

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, root in self.spans:
                f.write(json.dumps([name, start, end, parent, root]) + "\n")


def self_times(spans: Sequence[Span]) -> List[int]:
    """Self time of each span: duration minus the union of its direct
    children's intervals, clipped to the parent's interval."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, _root in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _root) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def summarize(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """Per span name: (calls, total self time in seconds)."""
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for span, st in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_ns[span[0]] += st
    return {name: (calls[name], self_ns[name] / 1e9) for name in calls}


def install_racekde(tracer: Tracer) -> None:
    """Rebind the racekde layer boundaries the benchmark reports on."""
    from racekde import baselines, io, kernels, lsh, sketch, vectors

    def on_projection(t, args, result):
        t.counts["lsh.projection_block.components"] += result.size

    def on_slots(t, args, result):
        _cfg, X, W, _b, _r0 = args[:5]
        t.counts["lsh.slots_for_block.item_rows"] += result.size
        t.shapes[(X.shape[0], X.shape[1], W.shape[0])] += 1

    spans = {
        (lsh, "projection_block"): on_projection,
        (lsh, "offset_block"): None,
        (lsh, "slots_for_block"): on_slots,
        (lsh, "hash_all"): None,
        (lsh, "hash_matrix"): None,
        (io, "read_dense"): None,
        (io, "read_sparse"): None,
        (io, "write_eval_csv"): None,
        (baselines, "exact_kde"): None,
    }
    for (module, attr), hook in spans.items():
        name = f"{module.__name__.split('.')[-1]}.{attr}"
        tracer.rebind_function(
            module, attr, lambda fn, name=name, hook=hook: tracer.wrap(name, fn, hook)
        )
    for attr in ("add", "remove", "add_matrix", "estimate", "raw_query_matrix",
                 "to_bytes", "from_bytes", "merge"):
        tracer.rebind_method(
            sketch.RaceSketch, attr, lambda fn, n=f"sketch.{attr}": tracer.wrap(n, fn)
        )
    tracer.rebind_method(
        baselines.ReservoirSample, "estimate",
        lambda fn: tracer.wrap("baselines.ReservoirSample.estimate", fn),
    )
    tracer.rebind_method(
        vectors.DataVector, "__init__", lambda fn: tracer.wrap("vectors.DataVector", fn)
    )
    tracer.rebind_method(
        kernels.KernelEval, "distance",
        lambda fn: tracer.count_calls("kernels.KernelEval.distance.calls", fn),
    )
