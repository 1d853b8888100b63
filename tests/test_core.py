"""Core types, validation, formula evaluation and the negation-loop check."""

import copy
import gc
import pickle
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest

from cplogic import core
from cplogic.core import (
    CONTRADICTORY_BODY,
    DOUBLE_NEGATION_LOOP,
    DUPLICATE_HEAD_ATOM,
    DUPLICATE_LABEL,
    EXOGENOUS_IN_HEAD,
    HEAD_SUM_EXCEEDS_ONE,
    ZERO_PROBABILITY,
    Atom,
    Conjunction,
    CPLaw,
    Disjunction,
    FormulaAtom,
    HeadAlternative,
    Literal,
    Negation,
    Theory,
    TRUE,
    FALSE,
    eval_formula,
    negation_loop_check,
    validate_theory,
)
from cplogic.errors import UnknownAtomError, ValidationError
from cplogic.textio import load_theory


def law(head, body=(), label=None):
    return CPLaw(tuple(head), tuple(body), label)


def alt(name, prob=1):
    return HeadAlternative(Atom(name), Fraction(prob))


class TestAtom:
    def test_equal_names_give_equal_atoms(self):
        atom = Atom("shatters")
        for other in (Atom("shatters"), pickle.loads(pickle.dumps(atom)), copy.deepcopy(atom)):
            assert other == atom and hash(other) == hash(atom)
            assert type(other) is Atom
        assert Atom("shatters") != Atom("shatter")

    def test_an_atom_equals_its_name_string(self):
        assert Atom("a") == "a"
        assert hash(Atom("a")) == hash("a")
        assert Atom("a").name == "a" and type(Atom("a").name) is str
        assert repr(Atom("a")) == "Atom('a')"

    def test_rejects_uppercase_leading_names(self):
        with pytest.raises(ValueError):
            Atom("Shatters")

    def test_rejects_reserved_words(self):
        for word in ("none", "context", "exogenous", "true", "false"):
            with pytest.raises(ValueError):
                Atom(word)

    def test_orders_by_name(self):
        assert sorted([Atom("b"), Atom("a")]) == [Atom("a"), Atom("b")]

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Atom("a").name = "b"

    def test_threads_building_new_names_get_equal_atoms(self):
        names = [f"race_{i}" for i in range(2000)]
        workers = 6
        barrier = threading.Barrier(workers)
        got: list = [None] * workers

        def build(slot):
            barrier.wait(timeout=10)
            got[slot] = [Atom(name) for name in names]

        threads = [threading.Thread(target=build, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for atoms in got:
            assert atoms == names
            assert [hash(a) for a in atoms] == [hash(name) for name in names]

    def test_parsing_fresh_names_does_not_grow_memory(self):
        # Every theory brings 20 new names and is dropped at once; with
        # no table behind the atoms, nothing of them outlives it.
        def parse_fresh_theories(prefix, count):
            for i in range(count):
                names = [f"{prefix}_{i}_{k}" for k in range(20)]
                text = "".join(f"{b}:1/2 <- {a}.\n" for a, b in zip(names, names[1:]))
                load_theory(f"exogenous {names[0]}.\n" + text)

        parse_fresh_theories("warm", 20)
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            parse_fresh_theories("fresh", 200)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 4000 atoms kept alive would take well over 200 kB.
        assert grown < 20_000


class TestComputedOnce:
    def test_stored_after_the_first_read(self):
        theory = Theory((law([alt("b")], [Literal(Atom("a"))], "r1"),), frozenset({Atom("a")}))
        assert theory.vocabulary is theory.vocabulary
        assert theory.numbering is theory.numbering
        assert theory.numbering.pos_users == [[0], []]
        assert theory.numbering.neg_users == [[], []]

    def test_threads_reading_fresh_theories_get_equal_values(self):
        laws = tuple(
            law([alt(f"h{i}", Fraction(1, 2))], [Literal(Atom(f"h{i - 1}")), Literal(Atom(f"n{i}"), False)], f"r{i}")
            for i in range(1, 40)
        )
        theories = [Theory(laws, frozenset({Atom("h0")})) for _ in range(300)]
        workers = 6
        barrier = threading.Barrier(workers)
        got: list = [None] * workers

        def read(slot):
            barrier.wait(timeout=10)
            got[slot] = [(t.numbering.pos_users, t.numbering.neg_users, t.vocabulary) for t in theories]

        threads = [threading.Thread(target=read, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        numbering = theories[0].numbering
        expected = (numbering.pos_users, numbering.neg_users, theories[0].vocabulary)
        assert expected[1][numbering.index[Atom("n5")]] == [4]
        for values in got:
            assert values == [expected] * len(theories)


class TestVocabulary:
    @staticmethod
    def oracle(theory):
        atoms = set(theory.exogenous)
        for law in theory.laws:
            atoms.update(law.head_atoms)
            atoms.update(lit.atom for lit in law.body)
        return frozenset(atoms)

    def test_exogenous_head_and_body_atoms_on_random_theories(self):
        from randgen import random_cases

        for theory, _ in random_cases(300):
            assert theory.vocabulary == self.oracle(theory)

    def test_unvalidated_candidate_with_unlabeled_laws(self):
        candidate = Theory((
            law([alt("b", Fraction(1, 2)), alt("c", Fraction(1, 3))], [Literal(Atom("a")), Literal(Atom("d"), False)]),
            law([alt("b")], [Literal(Atom("b"))]),
            law([alt("e")], label="x"),
        ), frozenset({Atom("a"), Atom("z")}))
        assert candidate.vocabulary == self.oracle(candidate) == frozenset(Atom(n) for n in "abcdez")
        assert validate_theory(candidate).vocabulary == candidate.vocabulary


class TestNumbering:
    def test_body_users_list_each_law_once_in_order(self):
        a, b = Literal(Atom("a")), Literal(Atom("b"))
        theory = Theory((
            law([alt("b")], [a, a], "r1"),
            law([alt("c")], [b.complement(), a, b.complement()], "r2"),
            law([alt("d")], [b], "r3"),
        ), frozenset({Atom("a")}))
        numbering = theory.numbering
        assert numbering.atoms == [Atom(n) for n in "abcd"]
        assert numbering.pos_users == [[0, 1], [2], [], []]
        assert numbering.neg_users == [[], [1], [], []]


class TestProbabilityRepresentation:
    def test_decimal_text_is_exact(self):
        value = Fraction("0.9")
        assert (value.numerator, value.denominator) == (9, 10)

    def test_always_lowest_terms(self):
        value = Fraction(18, 20)
        assert (value.numerator, value.denominator) == (9, 10)
        again = Fraction(value.numerator, value.denominator)
        assert again == value

    def test_denominator_positive(self):
        assert Fraction(1, -2).denominator == 2


class TestValidateTheory:
    def test_two_thrower_theory_is_valid(self):
        exo = frozenset({Atom("throws_suzy"), Atom("throws_billy")})
        candidate = Theory(
            (
                law([HeadAlternative(Atom("shatters"), Fraction(9, 10))],
                    [Literal(Atom("throws_suzy"))]),
                law([HeadAlternative(Atom("shatters"), Fraction(8, 10))],
                    [Literal(Atom("throws_billy"))]),
            ),
            exo,
        )
        theory = validate_theory(candidate)
        assert [l.label for l in theory.laws] == ["r1", "r2"]
        assert theory.vocabulary == exo | {Atom("shatters")}

    def test_validation_is_idempotent(self):
        theory = validate_theory(Theory((law([alt("a", Fraction(1, 2))]),)))
        assert validate_theory(theory) is theory

    def test_head_sum_exceeds_one(self):
        bad = Theory((law([alt("a", Fraction(9, 10)), alt("b", Fraction(8, 10))]),))
        with pytest.raises(ValidationError) as err:
            validate_theory(bad)
        assert [i.code for i in err.value.issues] == [HEAD_SUM_EXCEEDS_ONE]

    def test_zero_probability(self):
        bad = Theory((law([HeadAlternative(Atom("a"), Fraction(0))]),))
        with pytest.raises(ValidationError) as err:
            validate_theory(bad)
        assert err.value.issues[0].code == ZERO_PROBABILITY

    def test_duplicate_head_atom(self):
        bad = Theory((law([alt("a", Fraction(1, 2)), alt("a", Fraction(1, 4))]),))
        with pytest.raises(ValidationError) as err:
            validate_theory(bad)
        assert err.value.issues[0].code == DUPLICATE_HEAD_ATOM

    def test_exogenous_atom_must_not_be_caused(self):
        bad = Theory((law([alt("a")]),), frozenset({Atom("a")}))
        with pytest.raises(ValidationError) as err:
            validate_theory(bad)
        assert err.value.issues[0].code == EXOGENOUS_IN_HEAD

    def test_contradictory_body(self):
        bad = Theory((law([alt("a")], [Literal(Atom("b")), Literal(Atom("b"), False)]),))
        with pytest.raises(ValidationError) as err:
            validate_theory(bad)
        assert err.value.issues[0].code == CONTRADICTORY_BODY

    def test_duplicate_explicit_label(self):
        bad = Theory((law([alt("a")], label="x"), law([alt("b")], label="x")))
        with pytest.raises(ValidationError) as err:
            validate_theory(bad)
        assert err.value.issues[0].code == DUPLICATE_LABEL

    def test_auto_label_collision_with_explicit(self):
        bad = Theory((law([alt("a")], label="r2"), law([alt("b")])))
        with pytest.raises(ValidationError) as err:
            validate_theory(bad)
        assert err.value.issues[0].code == DUPLICATE_LABEL

    def test_double_negation_loop_rejected_with_witness(self):
        bad = Theory((
            law([alt("p", Fraction(1, 2))], [Literal(Atom("q"), False)]),
            law([alt("q", Fraction(1, 2))], [Literal(Atom("p"), False)]),
        ))
        with pytest.raises(ValidationError) as err:
            validate_theory(bad)
        issue = err.value.issues[0]
        assert issue.code == DOUBLE_NEGATION_LOOP
        assert set(issue.witness) == {Atom("p"), Atom("q")}

    def test_collects_multiple_issues_in_one_pass(self):
        bad = Theory((
            law([alt("a", Fraction(9, 10)), alt("b", Fraction(8, 10))]),
            law([HeadAlternative(Atom("c"), Fraction(0))]),
        ))
        with pytest.raises(ValidationError) as err:
            validate_theory(bad)
        assert {i.code for i in err.value.issues} == {
            HEAD_SUM_EXCEEDS_ONE, ZERO_PROBABILITY,
        }


class TestNegationLoopCheck:
    def test_mutual_negation_is_a_loop(self):
        theory = Theory((
            law([alt("p", Fraction(1, 2))], [Literal(Atom("q"), False)]),
            law([alt("q", Fraction(1, 2))], [Literal(Atom("p"), False)]),
        ))
        witness = negation_loop_check(theory)
        assert witness is not None and set(witness) == {Atom("p"), Atom("q")}

    def test_blocking_chain_without_cycles_is_fine(self):
        theory = Theory((
            law([alt("e")], [Literal(Atom("a")), Literal(Atom("f"), False)]),
            law([alt("f")], [Literal(Atom("d")), Literal(Atom("b"), False)]),
            law([alt("b")], [Literal(Atom("c"))]),
        ), frozenset({Atom("a"), Atom("c"), Atom("d")}))
        assert negation_loop_check(theory) is None

    def test_empty_theory_is_fine(self):
        assert negation_loop_check(Theory()) is None

    def test_single_negation_in_a_cycle_is_allowed(self):
        theory = Theory((
            law([alt("p", Fraction(1, 2))], [Literal(Atom("q"), False)]),
            law([alt("q", Fraction(1, 2))], [Literal(Atom("p"))]),
        ))
        assert negation_loop_check(theory) is None

    def test_reaches_only_from_negative_edge_endpoints(self, monkeypatch):
        # A 20,000-law chain plus two negations: reaching from every
        # atom would be quadratic; the check needs x, y, z and w only.
        calls = []
        reachable = core._reachable

        def counting(succ, start):
            calls.append(start)
            assert len(calls) <= 4, "reached from an atom no negative edge touches"
            return reachable(succ, start)

        monkeypatch.setattr(core, "_reachable", counting)
        links = "".join(f"a{i} <- a{i - 1}.\n" for i in range(1, 20_000))
        theory = load_theory(f"exogenous a0.\n{links}x:1/2 <- ~y.\nz:1/2 <- ~w.\n")
        assert len(theory.laws) == 20_001
        assert sorted(calls) == [Atom(n) for n in "wxyz"]

    def test_loop_after_a_long_chain_keeps_its_witness(self):
        links = "".join(f"a{i} <- a{i - 1}.\n" for i in range(1, 2000))
        with pytest.raises(ValidationError) as err:
            load_theory(f"exogenous a0.\n{links}p:1/2 <- ~q, a1999.\nq:1/2 <- ~p.\n")
        (issue,) = err.value.issues
        assert issue.code == DOUBLE_NEGATION_LOOP
        assert set(issue.witness) == {Atom("p"), Atom("q")}

    def test_accepted_theories_pass_a_recheck(self):
        theory = validate_theory(Theory((
            law([alt("b")], [Literal(Atom("a"), False)]),
            law([alt("a", Fraction(1, 2))]),
        )))
        assert negation_loop_check(theory) is None


class TestEvalFormula:
    def test_conjunction_with_negation(self):
        f = Conjunction((FormulaAtom(Atom("a")), Negation(FormulaAtom(Atom("b")))))
        assert eval_formula(f, frozenset({Atom("a")})) is True

    def test_disjunction_on_empty_interpretation(self):
        f = Disjunction((FormulaAtom(Atom("a")), FormulaAtom(Atom("b"))))
        assert eval_formula(f, frozenset()) is False

    def test_atom_lookup(self):
        interp = frozenset({Atom("throws_suzy"), Atom("throws_billy"), Atom("shatters")})
        assert eval_formula(FormulaAtom(Atom("shatters")), interp) is True

    def test_constants(self):
        assert eval_formula(TRUE, frozenset()) is True
        assert eval_formula(FALSE, frozenset()) is False

    def test_unknown_atom_against_vocabulary(self):
        with pytest.raises(UnknownAtomError):
            eval_formula(FormulaAtom(Atom("zz")), frozenset(), vocabulary=frozenset())


class TestLiteral:
    def test_holds_in(self):
        assert Literal(Atom("a")).holds_in({Atom("a")})
        assert Literal(Atom("a"), False).holds_in(set())
        assert not Literal(Atom("a"), False).holds_in({Atom("a")})

    def test_complement(self):
        lit = Literal(Atom("a"))
        assert lit.complement() == Literal(Atom("a"), False)
        assert lit.complement().complement() == lit

    def test_text_form(self):
        assert str(Literal(Atom("a"), False)) == "~a"
