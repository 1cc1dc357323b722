"""Spans around curvopt's public functions, installed from outside the library.

``Tracer.install`` wraps each listed function or method and rebinds the
wrapper in every curvopt module that imported the name (so that, say,
``objectives.from_ball`` and ``reductions.make_frame`` are traced too).
Spans stay in memory as ``(id, name, run, parent, start_ns, end_ns)``
tuples until ``write_csv``; ``run`` separates set-up (0) from the solve (1).
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter, defaultdict

# The layers' public functions, by module.
FUNCTIONS = {
    "bench": ("build_instance",),
    "manifolds": ("distance", "log_map", "exp_map", "inner", "norm"),
    "geomap": (
        "from_ball",
        "to_ball",
        "pullback_gradient",
        "map_differential",
        "make_frame",
        "deformation_constants",
    ),
    "axgd": ("run", "binary_line_search", "mirror_dual_grad"),
    "reductions": ("solve_gconvex_via_sc", "solve_strongly_gconvex"),
    "baselines": ("rgd_run", "reference_optimum"),
}
METHODS = {
    "objectives": {
        "FrechetObjective": ("grad_c", "value_c"),
        "RegularizedObjective": ("grad_c", "value_c"),
        "MappedObjective": ("grad", "value"),
    },
}
# Result hooks: the value each call's return contributes to ``Tracer.results``.
RESULT_HOOKS = {"axgd.binary_line_search": lambda res: res.probes}

SETUP, SOLVE = 0, 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.results = []  # (run, span name, hook value)
        self.run = SETUP
        self._stack = [-1]
        self._ids = itertools.count()
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, self.run, parent, start, end))
            if hook is not None:
                self.results.append((self.run, name, hook(out)))
            return out

        return traced

    def install(self, co):
        """Wrap every listed function of the imported package ``co``."""
        modules = [m for key, m in sys.modules.items() if key == "curvopt" or key.startswith("curvopt.")]
        for mod_name, names in FUNCTIONS.items():
            mod = getattr(co, mod_name)
            for fn_name in names:
                original = getattr(mod, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, attr, wrapper)
        for mod_name, classes in METHODS.items():
            mod = getattr(co, mod_name)
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._set(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", vars(cls)[meth]))
        table = co.checks.ALL_CHECKS
        for i, check in enumerate(list(table)):
            table[i] = self.wrap(f"checks.{check.__name__}", check)
            self._undo.append(functools.partial(table.__setitem__, i, check))

    def _set(self, owner, attr, value):
        self._undo.append(functools.partial(setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("id,name,run,parent,start_ns,end_ns\n")
            for span in sorted(self.spans):
                fh.write(",".join(map(str, span)) + "\n")


class SpanStats:
    """Per-name call counts, inclusive and self time of one run's spans."""

    def __init__(self, spans, run):
        names = {sid: name for sid, name, *_ in spans}
        self.calls = Counter()
        self.inclusive_ns = defaultdict(int)
        child_ns = defaultdict(int)
        self.under = Counter()  # (name, parent name) -> calls
        for sid, name, span_run, parent, start, end in spans:
            if span_run != run:
                continue
            self.calls[name] += 1
            self.inclusive_ns[name] += end - start
            if parent >= 0:
                child_ns[names[parent]] += end - start
                self.under[name, names[parent]] += 1
        self.self_ns = {name: self.inclusive_ns[name] - child_ns[name] for name in self.calls}

    def self_s(self, name):
        return self.self_ns.get(name, 0) / 1e9

    def inclusive_s(self, name):
        return self.inclusive_ns.get(name, 0) / 1e9
