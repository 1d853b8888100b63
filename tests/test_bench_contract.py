"""The names and call shapes the benchmark's tracer relies on.

``bench/tracer.py`` wraps the functions that BENCHMARK.json's per-layer
metrics name, in every cplogic module that binds them, and calls two
pre-hooks with the wrapped function's own arguments. A renamed or
deleted function, or a changed signature, would otherwise show up only
as a failed traced benchmark run.
"""

import importlib.util
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

import cplogic.causation
import cplogic.cli
import cplogic.core
import cplogic.engine
import cplogic.textio
from cplogic import corpus
from cplogic.core import Atom, FormulaAtom
from cplogic.textio import load_theory

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced(tracer):
    plan = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tracer.traced_names([metric["name"] for metric in plan["per_layer"]])


def test_every_traced_name_resolves_and_is_bound(tracer, traced):
    originals = tracer.traced_functions(traced)
    assert sorted(name for name, _ in originals.values()) == sorted(traced)
    bound = {originals[id(fn)][0] for _, _, fn in tracer.bindings(originals)}
    assert bound == set(traced)


@pytest.mark.parametrize("target, hook", [
    (cplogic.engine.prob_formula, "_cone"),
    (cplogic.causation.actual_cause, "_cause_key"),
])
def test_pre_hooks_accept_the_arguments_of_what_they_wrap(tracer, target, hook):
    params = list(inspect.signature(getattr(tracer.Tracer, hook)).parameters.values())[1:]
    hook_params = {p.name: p for p in params}
    for param in inspect.signature(target).parameters.values():
        assert param.name in hook_params, param.name
        assert hook_params[param.name].kind == param.kind
        if param.default is not inspect.Parameter.empty:
            assert hook_params[param.name].default is not inspect.Parameter.empty
    required = {p.name for p in params if p.default is inspect.Parameter.empty}
    assert required <= set(inspect.signature(target).parameters)


def test_a_traced_pass_sees_every_counted_call(tracer, traced):
    tr = tracer.Tracer(traced)
    theory = load_theory("exogenous t1, t2.\nshatters:1/2 <- t1.\nshatters:1/2 <- t2.\n")
    context = frozenset({Atom("t1"), Atom("t2")})
    suzy = corpus.theory("suzy_billy")
    tr.install()
    try:
        tr.op = 1
        assert cplogic.engine.prob_formula(
            theory, context, FormulaAtom(Atom("shatters")), vocabulary=theory.vocabulary
        ) == Fraction(3, 4)
        tr.op = 2
        verdicts = cplogic.causation.classify_causes(
            suzy, frozenset(Atom(n) for n in ("throws_suzy", "throws_billy", "shatters")),
            cplogic.core.Literal(Atom("shatters")),
        )
    finally:
        tr.uninstall()
    assert tracer.pristine(tracer.bindings(tr.originals))
    assert tr.counts[1, "engine.build_tree.nodes"] == 7
    branches = next(iter(verdicts.values())).branches
    assert tr.counts[2, "engine.enumerate_branches.branches"] == branches
    assert tr.calls[2, "causation.actual_cause"] > 0
    # causation's own binding of prob_formula is wrapped too.
    assert tr.calls[2, "engine.prob_formula"] == len(tr.cone_ratios) - 1 > 0
    assert tr.cone_ratios[0] == 1.0


def test_a_traced_classification_checks_every_candidate_on_every_branch(tracer, traced):
    # bench/ops.py::exact_count_mismatches requires n * m!(2^m - 1) checks
    # and m!(2^m - 1) branches per causes-partial op; here n = m = 3.
    throwers = ("t1", "t2", "t3")
    theory = load_theory(
        f"exogenous {', '.join(throwers)}.\n" + "".join(f"shatters:1/2 <- {t}.\n" for t in throwers)
    )
    outcome = frozenset(Atom(name) for name in throwers + ("shatters",))
    tr = tracer.Tracer(traced)
    tr.install()
    try:
        tr.op = 1
        verdicts = cplogic.causation.classify_causes(
            theory, outcome, cplogic.core.Literal(Atom("shatters"))
        )
    finally:
        tr.uninstall()
    assert tracer.pristine(tracer.bindings(tr.originals))
    assert len(verdicts) == 3
    assert tr.calls[1, "causation.actual_cause"] == 3 * 6 * 7 == 126
    assert tr.counts[1, "engine.enumerate_branches.branches"] == 6 * 7 == 42
