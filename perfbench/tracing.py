"""In-memory span tracing around presforge's public functions.

A span is ``[name, start_ns, end_ns, parent_index]``; spans live in one list
and are written out only when the benchmark ends.  A layer's self time is a
span's duration minus the durations of its direct children.

Many presforge modules import functions by name (``cli`` imports
``todd_coxeter``, ``constructions`` imports ``apply_map``), so wrapping one
module attribute is not enough: `Tracer.install` rebinds every attribute of
every loaded ``presforge`` module that refers to the wrapped object.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns


def _todd_coxeter_counts(counts, args, kwargs, table):
    counts["quotients.cosets_defined"] += table.cosets_defined
    counts["quotients.index_sum"] += table.index or 0


def _metric_certificate_counts(counts, args, kwargs, cert):
    counts["smallcancel.symmetrized_letters"] += 2 * sum(cert.relator_lengths)


def _dehn_solve_counts(counts, args, kwargs, result):
    counts["smallcancel.dehn_replacements"] += result.replacements
    counts["smallcancel.dehn_letters"] += len(args[1])


def _snf_counts(counts, args, kwargs, form):
    counts["homology.snf_cells"] += form.rows * form.cols


# (module, attribute, span name, result hook); "Class.method" attributes
# wrap a method on the class itself.
TARGETS = (
    ("presforge.quotients", "todd_coxeter", "quotients.todd_coxeter", _todd_coxeter_counts),
    ("presforge.quotients", "hom_search", "quotients.hom_search", None),
    ("presforge.smallcancel", "metric_certificate", "smallcancel.metric_certificate",
     _metric_certificate_counts),
    ("presforge.smallcancel", "DehnSolver.__init__", "smallcancel.DehnSolver.init", None),
    ("presforge.smallcancel", "DehnSolver.solve", "smallcancel.DehnSolver.solve",
     _dehn_solve_counts),
    ("presforge.freewords", "free_reduce", "freewords.free_reduce", None),
    ("presforge.freewords", "apply_map", "freewords.apply_map", None),
    ("presforge.presentations", "direct_product_presentation",
     "presentations.direct_product_presentation", None),
    ("presforge.presentations", "parse_presentation", "presentations.parse_presentation", None),
    ("presforge.presentations", "render_presentation", "presentations.render_presentation", None),
    ("presforge.homology", "smith_normal_form", "homology.smith_normal_form", _snf_counts),
    ("presforge.homology", "solve_row_lattice", "homology.solve_row_lattice", None),
    ("presforge.homology", "h1", "homology.h1", None),
    ("presforge.uce", "find_commutator_witnesses", "uce.find_commutator_witnesses", None),
    ("presforge.uce", "miller_uce", "uce.miller_uce", None),
    ("presforge.constructions", "rips_wise", "constructions.rips_wise", None),
    ("presforge.constructions", "fibre_generators", "constructions.fibre_generators", None),
    ("presforge.constructions", "kill_finite_quotients",
     "constructions.kill_finite_quotients", None),
    ("presforge.constructions", "super_perfectify", "constructions.super_perfectify", None),
    ("presforge.cli", "run_command", "cli.run_command", None),
)


class Tracer:
    """Collects spans and result-derived work counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a new measurement window with empty spans and counters."""
        self.spans = []
        self.counts = defaultdict(int)

    def _wrap(self, name: str, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind all presforge references to it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "presforge" or n.startswith("presforge."))]
        for modname, attr, name, hook in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - child[i]) / 1e9
        return out


def dump_spans(spans: list[list], path) -> None:
    """Write spans as tab-separated name, start_ns, end_ns, parent index."""
    with open(path, "w") as fh:
        fh.write("name\tstart_ns\tend_ns\tparent\n")
        for name, start, end, parent in spans:
            fh.write(f"{name}\t{start}\t{end}\t{parent}\n")
