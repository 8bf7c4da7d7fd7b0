"""Spans recorded from outside the program.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
wrapper, in every ``dofcount`` module namespace that holds it (a function
imported with ``from .cardbox import filter_deck`` is looked up in the
importing module, so each of those names is patched too), and each method
on its class.  A wrapper records one span: name, start, end and the span
that was open when it was called.  Spans stay in flat arrays in memory;
``summarize`` derives per-layer self time, counts and ratios from them, and
``write`` stores them when the run ends.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (span name, module, attribute, measure).  ``measure(args, kwargs, result)``
# gives the count a span carries, such as rows or sequences processed.
TARGETS = [
    ("cli.cli_main", "dofcount.cli", "cli_main", None),
    ("cli.render_csv", "dofcount.cli", "render_csv", None),
    ("deckfile.parse_deck_file", "dofcount.deckfile", "parse_deck_file", None),
    ("tomography.k_sweep", "dofcount.tomography", "k_sweep", None),
    ("tomography.estimate_k", "dofcount.tomography", "estimate_k", None),
    ("tomography.random_deck_ensemble", "dofcount.tomography", "random_deck_ensemble", None),
    ("tomography.fiducial_vector_cardbox", "dofcount.tomography", "fiducial_vector_cardbox", None),
    ("tomography.fiducial_vector_quantum", "dofcount.tomography", "fiducial_vector_quantum", None),
    ("tomography.matrix_rank_numeric", "dofcount.tomography", "matrix_rank_numeric",
     lambda args, kwargs, result: len(args[0])),
    ("tomography.exact_rank", "dofcount.tomography", "ExactRowBasis.add",
     lambda args, kwargs, result: 1.0 if result else 0.0),
    ("cardbox.outcome_distribution", "dofcount.cardbox", "outcome_distribution", None),
    ("cardbox.observe", "dofcount.cardbox", "observe", None),
    ("cardbox.filter_deck", "dofcount.cardbox", "filter_deck", None),
    ("quantum.measurement_distribution", "dofcount.quantum", "measurement_distribution", None),
    ("quantum.random_pure_state", "dofcount.quantum", "random_pure_state", None),
    ("quantum.random_basis", "dofcount.quantum", "random_basis", None),
    ("sequences.sequence_distribution", "dofcount.sequences", "sequence_distribution",
     lambda args, kwargs, result: len(result)),
    ("sequences.simulate_plan", "dofcount.sequences", "simulate_plan",
     lambda args, kwargs, result: args[2]),
    ("sequences.find_classicality_witness", "dofcount.sequences", "find_classicality_witness", None),
    ("rng.draw", "dofcount.rng", "RandomStream.randint_below", lambda args, kwargs, result: 1),
    ("rng.draw", "dofcount.rng", "RandomStream.integers_below",
     lambda args, kwargs, result: result.size),
    ("rng.draw", "dofcount.rng", "RandomStream.standard_normal",
     lambda args, kwargs, result: result.size),
]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.numeric_rows: dict[int, list] = {}  # op root span -> rows of its last numeric rank

    def clear(self) -> None:
        for arr in (self.name_id, self.parent, self.start, self.end, self.value):
            del arr[:]
        self.numeric_rows.clear()

    def _wrap(self, name: str, fn, measure):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, value, stack = (
            self.name_id, self.parent, self.start, self.end, self.value, self._stack)
        capture_rows = name == "tomography.matrix_rank_numeric"

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            value.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                value[idx] = measure(args, kwargs, result)
            if capture_rows:
                # estimate_k_quantum ranks the first half, then all rows; keep the last.
                self.numeric_rows[stack[1] if len(stack) > 1 else -1] = list(args[0])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module_name, attr, measure in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original, measure))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, measure)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "dofcount" and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summarize(self, roots: dict[int, float] | None, first: int = 0, last: int | None = None) -> dict:
        """Per span name: calls, summed duration, self time and carried counts.

        Self time is a span's duration minus the time its child spans cover.
        ``roots`` maps each root span to a factor its whole tree's times are
        scaled by (the host-speed factor of that op); None leaves times raw.
        ``children`` counts direct child spans by name, so ratios such as
        draws per basis or plans per witness search come from the tree.
        Spans ``first`` to ``last`` must hold whole trees: one op's spans are
        contiguous, since a span's index is taken when it starts.
        """
        n = len(self.start)
        span_range = range(first, n if last is None else last)
        child_time = [0.0] * n
        scale = [1.0] * n
        for i in span_range:  # a parent's index is always below its children's
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
                scale[i] = scale[p]
            elif roots is not None:
                scale[i] = roots[i]
        stats: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0.0,
                     "children": defaultdict(int)})
        for i in span_range:
            s = stats[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            s["calls"] += 1
            s["total_s"] += duration * scale[i]
            s["self_s"] += (duration - child_time[i]) * scale[i]
            s["value"] += self.value[i]
            p = self.parent[i]
            if p >= 0:
                stats[self.names[self.name_id[p]]]["children"][self.names[self.name_id[i]]] += 1
        return {k: dict(v, children=dict(v["children"])) for k, v in stats.items()}

    def write(self, path: Path) -> None:
        """Store the spans as gzip CSV: id, name, parent id, start, end, count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,parent,start,end,count\n")
            for i in range(len(self.start)):
                out.write(f"{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                          f"{self.start[i]:.9f},{self.end[i]:.9f},{self.value[i]:g}\n")
