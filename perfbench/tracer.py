"""Span tracer that wraps the crossimpact package from outside.

At install time it discovers every public module-level function of every
``crossimpact`` module, plus the CSV methods of the event and price
containers, and replaces each with a wrapper that records a span (name,
start, end, parent). Every module attribute that refers to the original
function is patched, so ``from .x import f`` aliases are traced too.
Only the CSV methods and the counters below are named: a function that
a later change deletes simply yields no spans and no counts.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

# container methods traced besides the module-level functions:
# (module, class, method, label used in the per-layer names)
CSV_METHODS = (
    ("hawkes", "EventStream", "to_csv", "csv_write"),
    ("hawkes", "EventStream", "from_csv", "csv_read"),
    ("observables", "PricePath", "to_csv", "csv_write"),
    ("observables", "PricePath", "from_csv", "csv_read"),
)


def _pieces(strategy):
    return sum(len(p) for p in strategy.pieces)


# per-call counters read from the bound arguments or the result; each
# yields (counter name, amount). A counter that no longer fits the
# function it reads (renamed argument, result without the attribute)
# is skipped, so the count is absent rather than an error.
COUNTERS = {
    "hawkes.simulate": lambda args, result: [("hawkes.events", len(result))],
    "observables.bin_events": lambda args, result: [
        ("observables.bins", result.n_bins)],
    "polymat.sbr2_pevd": lambda args, result: [
        ("polymat.sbr2_iterations", result.iterations)],
    # _pairwise_cost evaluates 4 corners for every ordered piece pair
    "arbitrage.cost": lambda args, result: [
        ("arbitrage.cost_corner_evals", 4 * _pieces(args["strategy"]) ** 2)],
}


def package_modules(package_name="crossimpact"):
    package = importlib.import_module(package_name)
    mods = {}
    for info in pkgutil.iter_modules(package.__path__):
        mods[info.name] = importlib.import_module(
            f"{package_name}.{info.name}")
    return package, mods


class Tracer:
    """Collects spans while installed; ``with tracer:`` installs it."""

    def __init__(self, package_name="crossimpact"):
        self.package, self.modules = package_modules(package_name)
        self.spans = []        # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []     # (owner, attribute, original)
        self.targets = self._discover()

    def _discover(self):
        targets = []           # (span name, function)
        for mod_name, mod in sorted(self.modules.items()):
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                targets.append((f"{mod_name}.{attr}", obj))
        return targets

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self._count(counter, signature, args, kwargs, result)
            return result
        return wrapper

    def _count(self, counter, signature, args, kwargs, result):
        try:
            bound = signature.bind(*args, **kwargs).arguments
            amounts = list(counter(bound, result))
        except Exception:  # noqa: BLE001  (a stale counter is skipped)
            return
        for key, amount in amounts:
            self.counts[key] += amount

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        owners = [self.package, *self.modules.values()]
        for name, fn in self.targets:
            wrapped = self._wrap(name, fn)
            for owner in owners:
                for attr, obj in list(vars(owner).items()):
                    if obj is fn:
                        self._patch(owner, attr, wrapped)
        for mod_name, cls_name, meth, label in CSV_METHODS:
            cls = getattr(self.modules.get(mod_name), cls_name, None)
            raw = getattr(cls, "__dict__", {}).get(meth)
            if raw is None:
                continue
            name = f"{mod_name}.{label}"
            if isinstance(raw, classmethod):
                self._patch(cls, meth,
                            classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, meth, self._wrap(name, raw))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def summary(self):
        """Per-module calls and self time, per-function time, counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, parent), inner in zip(self.spans, child):
            module = name.split(".", 1)[0]
            out[f"{module}.calls"] += 1
            out[f"{module}.self_s"] += (end - start) - inner
            out[f"{name}.s"] += end - start
        out.update(self.counts)
        return dict(out)

    def dump(self):
        return {"names": sorted({s[0] for s in self.spans}),
                "spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans]}
