"""Record semantics of the package's value types.

Every value type is a ``core.Record``: equal by class and fields,
hashed by its fields, printed as ``Name(field=value, ...)``, closed to
assignment and deletion, and round-tripped by pickle and deepcopy. The
``repr`` strings below are the ones these types printed when they were
frozen dataclasses.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cplogic import corpus
from cplogic.causation import CauseClassification, CauseQuery, PartialVerdict, Verdict, actual_cause
from cplogic.core import (
    Atom,
    Conjunction,
    Constant,
    CPLaw,
    Disjunction,
    FormulaAtom,
    HeadAlternative,
    Literal,
    Negation,
    Theory,
    ValidationIssue,
)
from cplogic.corpus import CompleteCheck, CorpusEntry, PartialCheck, ProbabilityCheck
from cplogic.engine import NO_EFFECT, Branch, Event, ExecutionTree, TreeEdge, TreeNode, initial_state, replay_story
from cplogic.textio import StoryDocument, StoryStep, TheoryDocument, parse_literal

SRC = Path(__file__).resolve().parents[1] / "src"

A, B = Atom("a"), Atom("b")
LAW = CPLaw((HeadAlternative(B, Fraction(1, 2)),), (Literal(A),), "r1")
LAW_TEXT = (
    "CPLaw(head=(HeadAlternative(atom=Atom('b'), prob=Fraction(1, 2), symbolic=False),), "
    "body=(Literal(atom=Atom('a'), positive=True),), label='r1')"
)
THEORY = Theory((LAW,), frozenset({A}))
THEORY_TEXT = f"Theory(laws=({LAW_TEXT},), exogenous=frozenset({{Atom('a')}}))"
STATE = initial_state(THEORY, {A})
LEAF = TreeNode(STATE, None, ())
LEAF_TEXT = f"TreeNode(state={STATE!r}, law=None, children=())"

#: One value of every record type, with its expected repr.
CASES = [
    (Literal(A, False), "Literal(atom=Atom('a'), positive=False)"),
    (HeadAlternative(A, Fraction(1, 2), True),
     "HeadAlternative(atom=Atom('a'), prob=Fraction(1, 2), symbolic=True)"),
    (LAW, LAW_TEXT),
    (THEORY, THEORY_TEXT),
    (FormulaAtom(A), "FormulaAtom(atom=Atom('a'))"),
    (Negation(FormulaAtom(A)), "Negation(operand=FormulaAtom(atom=Atom('a')))"),
    (Conjunction((FormulaAtom(A), FormulaAtom(B))),
     "Conjunction(parts=(FormulaAtom(atom=Atom('a')), FormulaAtom(atom=Atom('b'))))"),
    (Disjunction((FormulaAtom(A), FormulaAtom(B))),
     "Disjunction(parts=(FormulaAtom(atom=Atom('a')), FormulaAtom(atom=Atom('b'))))"),
    (Constant(True), "Constant(value=True)"),
    (ValidationIssue("duplicate-label", "label 'r1' used twice", 1),
     "ValidationIssue(code='duplicate-label', message=\"label 'r1' used twice\", law_index=1, witness=())"),
    (Event("r1", NO_EFFECT), "Event(label='r1', outcome=none)"),
    (Branch((STATE,), ()), f"Branch(states=({STATE!r},), events=())"),
    (TreeEdge(B, Fraction(1, 2), LEAF), f"TreeEdge(outcome=Atom('b'), prob=Fraction(1, 2), child={LEAF_TEXT})"),
    (LEAF, LEAF_TEXT),
    (ExecutionTree(THEORY, LEAF), f"ExecutionTree(theory={THEORY_TEXT}, root={LEAF_TEXT})"),
    (CauseQuery(Literal(A), Literal(B)),
     "CauseQuery(cause=Literal(atom=Atom('a'), positive=True), effect=Literal(atom=Atom('b'), positive=True))"),
    (Verdict(False, 1, THEORY, THEORY, frozenset(), Fraction(1, 2)),
     f"Verdict(is_cause=False, cut_index=1, relevant={THEORY_TEXT}, counterfactual={THEORY_TEXT}, "
     "context=frozenset(), effect_prob=Fraction(1, 2))"),
    (PartialVerdict(CauseClassification.CERTAIN, 2, 2),
     "PartialVerdict(classification=<CauseClassification.CERTAIN: 'certain'>, supporting=2, branches=2)"),
    (TheoryDocument("@r1: b:1/2 <- a.\n", THEORY, (1,)),
     f"TheoryDocument(source='@r1: b:1/2 <- a.\\n', theory={THEORY_TEXT}, law_lines=(1,))"),
    (StoryStep("r1", B, 2), "StoryStep(label='r1', outcome=Atom('b'), line=2)"),
    (StoryDocument(frozenset(), (StoryStep("r1", NO_EFFECT),)),
     "StoryDocument(context=frozenset(), steps=(StoryStep(label='r1', outcome=none, line=0),))"),
    (ProbabilityCheck("b", ("a",), "1/2", "n"),
     "ProbabilityCheck(query='b', context=('a',), expect='1/2', note='n')"),
    (CompleteCheck("s.story", "a", "b", True, "n"),
     "CompleteCheck(story='s.story', cause='a', effect='b', expect=True, note='n')"),
    (PartialCheck(("a", "b"), "b", "a", "certain", "n"),
     "PartialCheck(outcome=('a', 'b'), effect='b', candidate='a', expect='certain', note='n')"),
    (CorpusEntry("x", "x.cpl", (), (), (), ()),
     "CorpusEntry(name='x', theory_file='x.cpl', story_files=(), probabilities=(), complete=(), partial=())"),
]
IDS = [type(value).__name__ for value, _ in CASES]


@pytest.mark.parametrize("value, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_form(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", [value for value, _ in CASES], ids=IDS)
def test_equal_values_are_equal_and_hash_alike(value):
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin is not value
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
        assert type(twin) is type(value)


@pytest.mark.parametrize("value", [value for value, _ in CASES], ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value):
    field = type(value).__slots__[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def test_equality_goes_by_class_then_fields():
    parts = (FormulaAtom(A), FormulaAtom(B))
    assert Conjunction(parts) != Disjunction(parts)
    assert Conjunction(parts) == Conjunction(tuple(parts))
    assert Literal(A) == Literal(A, True) != Literal(A, False)
    assert FormulaAtom(A) != Literal(A)
    assert Constant(True) != True  # noqa: E712
    assert Event("r1", A) != ("r1", A)
    assert HeadAlternative(A, Fraction(1, 2)) != HeadAlternative(A, Fraction(1, 2), True)
    assert len({Literal(A), Literal(A), Literal(A, False)}) == 2


def test_unhashable_field_makes_an_unhashable_record():
    with pytest.raises(TypeError):
        hash(Branch([STATE], []))


def test_equal_values_print_equal_text():
    # A frozenset iterates in an order that depends on how it was built
    # and on the hash seed; its members print sorted by their repr.
    atoms = [Atom(f"e{i}") for i in range(64)]
    members = f"frozenset({{{', '.join(sorted(map(repr, atoms)))}}})"
    theory, reversed_twin = Theory((), frozenset(atoms)), Theory((), frozenset(atoms[::-1]))
    state = initial_state(theory, atoms)
    texts = {
        theory: f"Theory(laws=(), exogenous={members})",
        state: f"State(interp={members}, fired=frozenset(), over={members})",
    }
    for value in (theory, reversed_twin, state, initial_state(reversed_twin, atoms[::-1])):
        for twin in (value, copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and repr(twin) == texts[value]


class TestRoundTrips:
    @pytest.fixture
    def suzy(self):
        theory = corpus.theory("suzy_billy")
        branch = replay_story(theory, corpus.story("suzy_billy_suzy_first.story", theory))
        query = CauseQuery(parse_literal("throws_suzy"), parse_literal("shatters"))
        return theory, branch, actual_cause(theory, branch, query)

    @pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_theory_branch_and_verdict(self, suzy, roundtrip):
        theory, branch, verdict = suzy
        assert verdict.is_cause
        for value in suzy:
            again = roundtrip(value)
            assert again == value and hash(again) == hash(value)
        again = roundtrip(theory)
        assert again.vocabulary == theory.vocabulary
        assert again.numbering.atoms == theory.numbering.atoms
        again = roundtrip(branch)
        assert [s.interp for s in again.states] == [s.interp for s in branch.states]
        assert again.events == branch.events
        again = roundtrip(verdict)
        assert again.counterfactual.laws == verdict.counterfactual.laws
        assert again.effect_prob == 0


class TestComputeOnce:
    def test_law_and_theory_store_their_derived_values(self):
        law = CPLaw((HeadAlternative(B, Fraction(1, 3)),), (Literal(A),), "r1")
        theory = Theory((law,), frozenset({A}))
        assert vars(law) == {} and vars(theory) == {}
        assert law.head_atoms is law.head_atoms == frozenset({B})
        assert law.no_effect_prob == Fraction(2, 3)
        assert set(vars(law)) == {"head_atoms", "head_sum", "no_effect_prob"}
        assert theory.numbering is theory.numbering
        assert "numbering" in vars(theory)
        # Stored values do not take part in equality or hashing.
        twin = Theory((CPLaw(law.head, law.body, "r1"),), frozenset({A}))
        assert twin == theory and hash(twin) == hash(theory)

    def test_with_label_builds_a_new_law(self):
        law = CPLaw((HeadAlternative(B, Fraction(1, 3)),), (Literal(A),))
        labeled = law.with_label("r7")
        assert labeled.label == "r7" and law.label is None
        assert labeled.head is law.head and labeled.body is law.body

    def test_empty_head_rejected(self):
        with pytest.raises(ValueError, match="at least one head alternative"):
            CPLaw(())


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    code = (
        "import sys, cplogic.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', 'cplogic.cli') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.split() == ["['cplogic.cli']"]
