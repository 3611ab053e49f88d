"""Span recorder for the traced benchmark run.

The recorder wraps the public functions and methods of every spikelab layer
from the outside: the package sources stay untouched.  A wrapped function is
replaced in every module namespace that holds it, so re-exports such as
``hetero.top_eigs`` or ``verification.build_resolvent`` and class aliases
such as ``CovarianceModel.sqrt_matvec`` are timed too.  The per-item
callable handed to ``parallel_map`` gets its own span whose parent is the
``parallel_map`` span, even when the item runs on a pool thread.

Self time is a span's duration minus the part of its interval that its child
spans cover (children may overlap when they run on several threads).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "ensemble", "spectra", "stieltjes", "spikes", "locallaw",
          "hetero", "verification")

PARALLEL_MAP = "ensemble.parallel_map"
PARALLEL_ITEM = "ensemble.parallel_map.item"


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    error: bool = False
    workers: int = 1   # effective worker count, parallel_map spans only


@dataclass
class Stat:
    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Recorder:
    """Thread-safe in-memory span store with a per-thread span stack."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[Span] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, span: Span):
        with self._lock:
            self.spans.append(span)

    def call(self, name, fn, args=(), kwargs=None, parent=None, workers=1):
        """Run ``fn`` inside a span; ``parent`` defaults to this thread's
        innermost open span."""
        with self._lock:
            sid = next(self._ids)
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        error = False
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException:
            error = True
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.add(Span(sid, parent, name, start, end, error, workers))


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans) -> dict[str, Stat]:
    """Per-name call count, error count, total time and self time."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    stats: dict[str, Stat] = defaultdict(Stat)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.errors += s.error
        dur = s.end - s.start
        st.total_s += dur
        st.self_s += dur - covered(children.get(s.sid, ()), s.start, s.end)
    return dict(stats)


def parallel_util(spans) -> float:
    """Sum of item busy time over the sum of (workers x parallel_map span
    time); 0 when no parallel_map ran."""
    busy = sum(s.end - s.start for s in spans if s.name == PARALLEL_ITEM)
    capacity = sum(s.workers * (s.end - s.start) for s in spans
                   if s.name == PARALLEL_MAP)
    return busy / capacity if capacity > 0 else 0.0


# -- installation ---------------------------------------------------------


def _suffix(name, args):
    """Dynamic span-name suffix for the calls that fan out by argument."""
    if name == "ensemble.NoiseLaw.sample":
        return args[0].kind
    if name == "cli.main":
        return args[0][0] if args and args[0] else None
    return None


def _wrap(rec: Recorder, fn, name: str):
    dynamic = name in ("ensemble.NoiseLaw.sample", "cli.main")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name
        if dynamic:
            suffix = _suffix(name, args)
            if suffix:
                label = f"{name}.{suffix}"
        return rec.call(label, fn, args, kwargs)

    return wrapper


def _wrap_parallel_map(rec: Recorder, fn):
    @functools.wraps(fn)
    def parallel_map(item_fn, items, workers=None):
        items = list(items)
        eff = workers if workers is not None and workers > 1 and len(items) > 1 else 1

        def run():
            pid = rec.current()

            def item(x):
                return rec.call(PARALLEL_ITEM, item_fn, (x,), parent=pid)

            return fn(item, items, workers)

        return rec.call(PARALLEL_MAP, run, workers=eff)

    return parallel_map


def _public_functions(module):
    """(span name, function) for each public function and plain method
    defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{obj.__name__}", obj
        elif inspect.isclass(obj):
            for meth_attr, meth in vars(obj).items():
                if inspect.isfunction(meth) and not meth_attr.startswith("_"):
                    yield f"{layer}.{obj.__name__}.{meth.__name__}", meth


def install(rec: Recorder) -> int:
    """Wrap every public function of the spikelab layers in spans.

    Returns the number of namespace slots patched.  Call once per process,
    after ``spikelab`` is imported and before the timed work starts.
    """
    import importlib

    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"spikelab.{layer}")
        for name, fn in _public_functions(module):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (_wrap_parallel_map(rec, fn) if name == PARALLEL_MAP
                                    else _wrap(rec, fn, name))
    owners = [m for n, m in list(sys.modules.items())
              if n == "spikelab" or n.startswith("spikelab.")]
    owners += [obj for m in owners for obj in vars(m).values()
               if inspect.isclass(obj) and obj.__module__.startswith("spikelab.")]
    patched = 0
    for owner in {id(o): o for o in owners}.values():
        for attr, obj in list(vars(owner).items()):
            wrapped = wrappers.get(id(obj))
            if wrapped is not None:
                setattr(owner, attr, wrapped)
                patched += 1
    return patched
