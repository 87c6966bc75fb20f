"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public entry points of each rsccore layer
with wrappers, in every rsccore module that holds a reference to them, and
`uninstall()` puts the originals back.  A wrapper keeps a stack of open
layers, so each layer's self time is its duration minus the time of the
layers it called; a call nested in its own layer (recursion) is only
counted.  Boundary layers are also kept as spans in memory and written out
by the caller at the end of the run; the hot inner layers (congruence
closure, Fourier-Motzkin, normalization, machine steps) are only summed.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from collections import Counter
from time import perf_counter

# every traced layer, in report order
LAYERS = (
    "frontend.parse", "ssa.translate", "checker.constraint_gen",
    "checker.ctor", "checker.twophase", "infer.split", "infer.initial",
    "infer.fixpoint", "solver.check", "solver.normal", "solver.euf",
    "solver.fm", "semantics.run", "semantics.simulate",
    "semantics.simulate.translate", "semantics.simulate.normalize",
    "semantics.simulate.compare", "semantics.frsc.step",
    "semantics.irsc.step",
)
SPAN_LAYERS = frozenset((
    "frontend.parse", "ssa.translate", "checker.constraint_gen",
    "checker.ctor", "checker.twophase", "infer.split", "infer.initial",
    "infer.fixpoint", "solver.check", "semantics.run", "semantics.simulate",
))


class Tracer:
    def __init__(self):
        self.item = None
        self.stack: list = []   # open layers: [layer, start, child time]
        self.depth: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list = []   # (item, layer, start, end, parent layer)
        self._undo: list = []

    def begin_item(self, name: str):
        """Start a fresh input.  The stack and depths are reset as well:
        a deadline alarm that fires inside a wrapper's bookkeeping can
        leave a layer open."""
        self.item = name
        self.stack.clear()
        self.depth.clear()
        self.self_s.clear()
        self.counts.clear()

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, fn, layer: str, count: str = None, before=None,
             after=None):
        """`before(args, kwargs)` may return new kwargs; `after(result,
        args, kwargs)` sees the result.  Neither runs for a call nested in
        its own layer."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                tracer.counts[count] += 1
            if tracer.depth[layer]:
                return fn(*args, **kwargs)
            if before is not None:
                kwargs = before(args, kwargs)
            stack = tracer.stack
            frame = [layer, perf_counter(), 0.0]
            stack.append(frame)
            tracer.depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.depth[layer] -= 1
                stack.pop()
                duration = end - frame[1]
                tracer.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if layer in SPAN_LAYERS:
                    tracer.spans.append((tracer.item, layer, frame[1], end,
                                         stack[-1][0] if stack else None))
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def _replace_function(self, fn, wrapper):
        """Swap `fn` for `wrapper` wherever an rsccore module names it."""
        for name, mod in list(sys.modules.items()):
            if name != "rsccore" and not name.startswith("rsccore."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def _replace_method(self, cls, name: str, layer: str, count: str):
        fn = cls.__dict__[name]
        setattr(cls, name, self.wrap(fn, layer, count))
        self._undo.append((cls, name, fn))

    def install(self):
        import rsccore
        for info in pkgutil.walk_packages(rsccore.__path__, "rsccore."):
            importlib.import_module(info.name)
        from rsccore import checker, frontend, infer, semantics, solver, ssa
        from rsccore.checker import ctor, twophase
        sim = sys.modules["rsccore.semantics.simulate"]  # the package
        # attribute of that name is the simulate function
        from rsccore.semantics.frsc import FrscMachine
        from rsccore.semantics.irsc import IrscMachine
        from rsccore.solver import euf, fm, normal

        c = self.counts

        def on_query(args, kwargs):
            if self.depth["infer.fixpoint"]:
                c["infer.queries"] += 1
            return kwargs

        def on_verdict(v, args, kwargs):
            c[f"solver.{v.status}"] += 1

        def on_fm_rows(args, kwargs):
            rows = args[0]
            keys = {k for coeffs, _, _ in rows for k in coeffs}
            c["solver.fm.rows_in_max"] = max(c["solver.fm.rows_in_max"],
                                             len(rows))
            c["solver.fm.vars_in_max"] = max(c["solver.fm.vars_in_max"],
                                             len(keys))
            return kwargs

        def on_fm_result(r, args, kwargs):
            if r[0] == "unsat":
                c["solver.fm.unsat"] += 1

        def on_solve(args, kwargs):
            c["infer.clauses"] += len(args[0])
            c["infer.kvars"] += len(args[2].infos)
            if kwargs.get("trace") is None:
                kwargs = dict(kwargs, trace=[])
            return kwargs

        def on_solved(r, args, kwargs):
            c["infer.weakenings"] += len(kwargs["trace"])

        def on_candidates(assign, args, kwargs):
            c["infer.candidates"] += sum(len(v) for v in assign.values())

        def on_checked(r, args, kwargs):
            c["checker.constraints"] += len(r.constraints)

        def on_simulated(rep, args, kwargs):
            c["semantics.simulate.frsc_steps"] += rep.frsc_steps
            c["semantics.simulate.irsc_steps"] += rep.irsc_steps

        functions = [
            (frontend.parse_program, "frontend.parse", {}),
            (ssa.ssa_program, "ssa.translate", {}),
            (checker.check_program, "checker.constraint_gen",
             {"after": on_checked}),
            (ctor.ctor_rewrite, "checker.ctor", {}),
            (ctor.ctor_init_signature, "checker.ctor", {}),
            (twophase.two_phase_expand, "checker.twophase", {}),
            (infer.split_horn, "infer.split", {}),
            (infer.initial_assignment, "infer.initial",
             {"after": on_candidates}),
            (infer.solve, "infer.fixpoint",
             {"before": on_solve, "after": on_solved}),
            (solver.check_valid, "solver.check",
             {"count": "solver.queries", "before": on_query,
              "after": on_verdict}),
            (solver._check_internal, "solver.check",
             {"count": "solver.distinct_queries"}),
            (normal.fold_pred, "solver.normal", {}),
            (normal.build_formula, "solver.normal", {}),
            (fm.solve, "solver.fm",
             {"count": "solver.fm.calls", "before": on_fm_rows,
              "after": on_fm_result}),
            (semantics.run, "semantics.run", {}),
            (sim.simulate, "semantics.simulate", {"after": on_simulated}),
            (sim.normalize, "semantics.simulate.normalize",
             {"count": "semantics.simulate.normalize.calls"}),
            (sim.terms_equal, "semantics.simulate.compare", {}),
            (sim.heaps_equal, "semantics.simulate.compare", {}),
        ]
        for fn, layer, kw in functions:
            self._replace_function(fn, self.wrap(fn, layer, **kw))
        methods = [
            (euf.CongruenceClosure, "close", "solver.euf",
             "solver.euf.close_calls"),
            (euf.CongruenceClosure, "merge", "solver.euf", None),
            (euf.CongruenceClosure, "assert_lit", "solver.euf", None),
            (euf.CongruenceClosure, "add", "solver.euf", None),
            (sim.ConfigTranslator, "config", "semantics.simulate.translate",
             None),
            (FrscMachine, "step", "semantics.frsc.step",
             "semantics.frsc.steps"),
            (IrscMachine, "step", "semantics.irsc.step",
             "semantics.irsc.steps"),
        ]
        for cls, name, layer, count in methods:
            self._replace_method(cls, name, layer, count)

    def uninstall(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)
