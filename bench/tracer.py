"""Outside-in tracer: spans around cplogic's public functions.

The program is not changed. The traced functions follow from the
per-layer metric names (``module.function.calls`` or ``.self_s``) plus
the few the counters below need. ``Tracer.install`` replaces each
traced function in *every* cplogic namespace that binds it:
``causation`` and ``cli`` import ``prob_formula``, ``build_tree`` and
the others by name, so patching ``cplogic.engine`` alone would miss
their calls.
``uninstall`` puts every original back, and ``pristine`` lets the
untraced runs prove that no wrapper is left.

Spans (name, start, end, parent, op id) stay in memory and are written
out by ``dump``. A span's self time is its duration minus the time its
child spans cover. Besides spans the wrappers count the work they can
see from the outside: tree nodes and distinct states, branches
yielded, the backward cone of each probability query, and the distinct
(candidate, branch prefix) keys of ``actual_cause``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict

#: Functions the tracer's own counters and exact-count checks need,
#: whatever the metric list asks for.
COUNTED = ("engine.build_tree", "engine.enumerate_branches", "engine.prob_formula",
           "causation.actual_cause")

#: Root span of one benchmark op; cplogic spans nest under it.
OP_SPAN = "bench.op"


def traced_names(metrics: list[str]) -> tuple[str, ...]:
    """``module.function`` names to wrap: those whose calls or self time
    a metric reports, plus the counted ones."""
    names = set(COUNTED)
    for metric in metrics:
        base, _, kind = metric.rpartition(".")
        if kind in ("calls", "self_s"):
            names.add(base)
    return tuple(sorted(names))


def traced_functions(names: tuple[str, ...]) -> dict:
    """id(original) -> (span name, original), from the defining modules."""
    found = {}
    for name in names:
        module, func = name.split(".")
        fn = getattr(sys.modules[f"cplogic.{module}"], func)
        found[id(fn)] = (name, fn)
    return found


def bindings(originals: dict) -> list[tuple[object, str, object]]:
    """Every (module, attribute, function) in cplogic that binds a traced function."""
    found = []
    for modname, mod in sorted(sys.modules.items()):
        if modname != "cplogic" and not modname.startswith("cplogic."):
            continue
        for attr, value in vars(mod).items():
            if id(value) in originals and originals[id(value)][1] is value:
                found.append((mod, attr, value))
    return found


def pristine(expected: list[tuple[object, str, object]]) -> bool:
    """True when every binding still holds its original function."""
    return all(getattr(mod, attr) is fn for mod, attr, fn in expected)


class Tracer:
    def __init__(self, names: tuple[str, ...]) -> None:
        self.originals = traced_functions(names)
        self.names: list[str] = [OP_SPAN]
        self._name_ids = {OP_SPAN: 0}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[int] = []
        self.op = 0
        self.calls: Counter = Counter()  # (op, name) -> calls
        self.counts: Counter = Counter()  # (op, counter) -> value
        self.cone_ratios: list[float] = []
        self._cause_keys: dict = defaultdict(set)  # op -> distinct keys
        self._installed: list[tuple[object, str, object]] = []
        self._formula_atoms = sys.modules["cplogic.core"].formula_atoms
        self._effect_index = sys.modules["cplogic.causation"].effect_index

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self.originals.items()}
        self._installed = bindings(self.originals)
        if not self._installed:
            raise RuntimeError("no traced function is bound anywhere")
        for mod, attr, fn in self._installed:
            setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in self._installed:
            setattr(mod, attr, fn)
        self._installed = []

    def _wrap(self, name: str, fn):
        pre = {
            "engine.prob_formula": self._cone,
            "causation.actual_cause": self._cause_key,
        }.get(name)
        post = {
            "engine.build_tree": self._tree_counts,
            "engine.enumerate_branches": lambda gen: self._branches(name, gen),
        }.get(name)

        def wrapper(*args, **kwargs):
            self.calls[self.op, name] += 1
            if pre is not None:
                pre(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            return result if post is None else post(result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- counters ----------------------------------------------------------

    def _tree_counts(self, tree):
        nodes, states = 0, set()
        stack = [tree.root]
        while stack:
            node = stack.pop()
            nodes += 1
            states.add((node.state.interp, node.state.fired))
            stack.extend(edge.child for edge in node.edges)
        self.counts[self.op, "engine.build_tree.nodes"] += nodes
        self.counts[self.op, "engine.build_tree.distinct_states"] += len(states)
        return tree

    def _branches(self, name: str, gen):
        """Time each resumption of the branch generator as its own span."""
        while True:
            idx = self.begin(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.end(idx)
            self.counts[self.op, "engine.enumerate_branches.branches"] += 1
            yield item

    def _cone(self, theory, context, formula, vocabulary=None):
        """Share of the laws in the query's backward cone."""
        producers = defaultdict(list)
        for law in theory.laws:
            for atom in law.head_atoms:
                producers[atom].append(law)
        seen_laws, seen_atoms = set(), set()
        todo = list(self._formula_atoms(formula))
        while todo:
            atom = todo.pop()
            if atom in seen_atoms:
                continue
            seen_atoms.add(atom)
            for law in producers[atom]:
                if law.label not in seen_laws:
                    seen_laws.add(law.label)
                    todo.extend(law.positive_body | law.negative_body)
        if theory.laws:
            self.cone_ratios.append(len(seen_laws) / len(theory.laws))

    def _cause_key(self, theory, branch, query):
        j = self._effect_index(branch, query.effect)
        key = (str(query.cause), tuple(str(e) for e in branch.events[:j]))
        self._cause_keys[self.op].add(key)

    def distinct_cause_keys(self, op: int) -> int:
        return len(self._cause_keys[op])

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> (op -> summed self time)."""
        child = [0.0] * len(self.span_name)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        out: dict = defaultdict(Counter)
        for idx, name_id in enumerate(self.span_name):
            dur = self.span_end[idx] - self.span_start[idx]
            out[self.names[name_id]][self.span_op[idx]] += dur - child[idx]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "columns": ["name", "start", "end", "parent", "op"],
                "name": list(self.span_name),
                "start": list(self.span_start),
                "end": list(self.span_end),
                "parent": list(self.span_parent),
                "op": list(self.span_op),
            }, fh)
