"""Outside-in layer tracer for mlqkit.

The tracer wraps public functions of the package from outside it.  A target
is wrapped by object identity in every loaded ``mlqkit.*`` namespace,
because ``from .x import f`` binds its own name for the same function in
each importing module.  ``QXPolynomial`` arithmetic and
``MultilineQueue.__init__`` are patched on their classes.  Generator
functions are timed per ``next``, so an enumeration's span covers producing
each object and not the caller's work on it.

A span's self time is its duration minus the time its child spans cover.
Wrappers record only while ``active`` is set, which the benchmark does for
the duration of one timed call, so its own output checks are not counted.
"""

import functools
import importlib
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (span, module, function); several functions may share one span.
FUNCTION_TARGETS = (
    ("mlq.enumerate", "mlqkit.mlq", "enumerate_gmlq"),
    ("mlq.label_mlq", "mlqkit.mlq", "label_mlq"),
    ("mlq.label_gmlq", "mlqkit.mlq", "label_gmlq"),
    ("matching.match", "mlqkit.matching", "match_brackets"),
    ("collapse.collapse", "mlqkit.collapse", "collapse"),
    ("collapse.lift", "mlqkit.collapse", "lift"),
    ("tableaux.insert", "mlqkit.tableaux", "column_insert"),
    ("tableaux.ssyt", "mlqkit.tableaux", "enumerate_ssyt"),
    ("tableaux.ssyt", "mlqkit.tableaux", "enumerate_skew_ssyt"),
    ("charge.charge", "mlqkit.charge", "charge"),
    ("fillings.filling", "mlqkit.fillings", "filling_of_mlq"),
    ("core.is_lattice", "mlqkit.core", "is_lattice"),
    ("poly.schur", "mlqkit.poly", "schur"),
    ("poly.kostka_lattice", "mlqkit.poly", "kostka_foulkes_lattice"),
)

# (span, module, class, methods)
METHOD_TARGETS = (
    ("poly.add", "mlqkit.poly", "QXPolynomial", ("__add__",)),
    ("poly.mul", "mlqkit.poly", "QXPolynomial", ("__mul__", "__rmul__")),
    ("mlq.queue_new", "mlqkit.mlq", "MultilineQueue", ("__init__",)),
)

# An event of the key span (a call, or an object for a generator) is also
# counted as "<scope>><span>" while any listed scope span is open.
SCOPED_EVENTS = {
    "mlq.enumerate": ("poly.schur", "poly.kostka_lattice"),
    "matching.match": ("collapse.collapse",),
}

# Per-layer metrics of the traced run, in report order, with their units.
# Counts and self times are per pass of the workload's mix; a layer that a
# workload never enters reads 0 there.
PER_LAYER_METRICS = (
    ("poly.add.calls", "count/pass"),
    ("poly.add.self_s", "s/pass"),
    ("poly.add.terms_copied", "count/pass"),
    ("poly.mul.calls", "count/pass"),
    ("poly.mul.self_s", "s/pass"),
    ("poly.schur.yield", "ratio"),
    ("poly.kostka_lattice.yield", "ratio"),
    ("mlq.enumerate.objects", "count/pass"),
    ("mlq.enumerate.self_s", "s/pass"),
    ("mlq.queue_new.calls", "count/pass"),
    ("mlq.queue_new.self_s", "s/pass"),
    ("mlq.label_mlq.calls", "count/pass"),
    ("mlq.label_mlq.self_s", "s/pass"),
    ("mlq.label_gmlq.calls", "count/pass"),
    ("mlq.label_gmlq.self_s", "s/pass"),
    ("matching.match.calls", "count/pass"),
    ("matching.match.self_s", "s/pass"),
    ("collapse.collapse.calls", "count/pass"),
    ("collapse.collapse.self_s", "s/pass"),
    ("collapse.drops", "count/pass"),
    ("collapse.matches_per_drop", "ratio"),
    ("collapse.lift.calls", "count/pass"),
    ("collapse.lift.self_s", "s/pass"),
    ("tableaux.insert.self_s", "s/pass"),
    ("tableaux.ssyt.objects", "count/pass"),
    ("tableaux.ssyt.self_s", "s/pass"),
    ("charge.charge.calls", "count/pass"),
    ("charge.charge.self_s", "s/pass"),
    ("fillings.filling.calls", "count/pass"),
    ("fillings.filling.self_s", "s/pass"),
    ("core.is_lattice.calls", "count/pass"),
    ("core.is_lattice.yield", "ratio"),
)

# Ratios: metric -> (numerator count, denominator count).  A ratio whose
# denominator is zero on a workload reads 0.
RATIOS = {
    "poly.schur.yield": ("poly.schur.kept", "poly.schur>mlq.enumerate"),
    "poly.kostka_lattice.yield": (
        "poly.kostka_lattice.kept",
        "poly.kostka_lattice>mlq.enumerate",
    ),
    "collapse.matches_per_drop": ("collapse.collapse>matching.match", "collapse.drops"),
    "core.is_lattice.yield": ("core.is_lattice.true", "core.is_lattice.calls"),
}


def _row_mass(queue):
    return sum(r * len(row) for r, row in enumerate(queue.rows, start=1))


def _count_terms_copied(tracer, args, result):
    # __add__ copies its left operand's terms into the new polynomial
    tracer.counts["poly.add.terms_copied"] += len(args[0].terms)


def _count_kept(name):
    # Each kept queue adds one monomial with coefficient 1, so the sum of
    # the result's coefficients is the number of queues kept.
    def after(tracer, args, result):
        tracer.counts[f"{name}.kept"] += sum(result.terms.values())

    return after


def _count_drops(tracer, args, result):
    # Every drop moves one ball down one row, so the fall in total row index
    # is the number of drops, whatever the collapse records about them.
    tracer.counts["collapse.drops"] += _row_mass(args[0]) - _row_mass(result.queue)


def _count_lattice(tracer, args, result):
    if result:
        tracer.counts["core.is_lattice.true"] += 1


AFTER_HOOKS = {
    "poly.add": _count_terms_copied,
    "poly.schur": _count_kept("poly.schur"),
    "poly.kostka_lattice": _count_kept("poly.kostka_lattice"),
    "collapse.collapse": _count_drops,
    "core.is_lattice": _count_lattice,
}


class Tracer:
    """Span stack, self times and counts for one traced run."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.active = False
        self.counts = Counter()
        self.self_ns = Counter()
        self._stack = []  # [span, start, time covered by children]
        self._open = Counter()
        self._patched = []  # (namespace dict or class, name, original)

    def _enter(self, span):
        self._stack.append([span, self.clock(), 0])
        self._open[span] += 1

    def _exit(self):
        span, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_ns[span] += duration - children
        self._open[span] -= 1
        if self._stack:
            self._stack[-1][2] += duration

    def _event(self, span, kind):
        self.counts[f"{span}.{kind}"] += 1
        for scope in SCOPED_EVENTS.get(span, ()):
            if self._open[scope]:
                self.counts[f"{scope}>{span}"] += 1

    def wrap(self, span, fn):
        """Return fn traced as span; generator functions are timed per next."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(span, fn)
        after = AFTER_HOOKS.get(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._event(span, "calls")
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after:
                after(tracer, args, result)
            return result

        return traced

    def _wrap_generator(self, span, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    timed = tracer.active
                    if timed:
                        tracer._enter(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if timed:
                            tracer._exit()
                    if timed:
                        tracer._event(span, "objects")
                    yield item
            finally:
                inner.close()

        return traced

    def install(self):
        """Patch every target; restore() undoes it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [
            vars(module)
            for name, module in list(sys.modules.items())
            if name == "mlqkit" or name.startswith("mlqkit.")
        ]
        for span, module_name, attr in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(span, original)
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patched.append((namespace, key, original))
                        namespace[key] = traced
        for span, module_name, class_name, methods in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self.wrap(span, original))

    def restore(self):
        while self._patched:
            target, key, original = self._patched.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def metrics(self, passes):
        """Per-layer metrics, counts and self times divided by passes."""
        out = {}
        for name, unit in PER_LAYER_METRICS:
            if name in RATIOS:
                num, den = RATIOS[name]
                value = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
            elif unit == "s/pass":
                value = self.self_ns[name.removesuffix(".self_s")] / 1e9 / passes
            else:
                value = self.counts[name] / passes
            out[name] = (value, unit)
        return out
