"""Concrete syntax: parsing, serialization round-trips and DOT export."""

import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from cplogic import corpus, textio
from cplogic.core import (
    Atom,
    Conjunction,
    Disjunction,
    FormulaAtom,
    Literal,
    Negation,
    TRUE,
)
from cplogic.engine import NO_EFFECT, Branch, Event, build_tree, replay_story
from cplogic.errors import (
    InvalidOutcomeError,
    NoEffectNotAllowedError,
    OutcomeNotInHeadError,
    ParseError,
    UnknownLabelError,
)
from cplogic.textio import (
    MAX_FORMULA_NESTING,
    export_tree_dot,
    format_interp,
    interp_formatter,
    load_theory,
    parse_context,
    parse_formula,
    parse_literal,
    parse_story,
    parse_theory,
    serialize_theory,
)


class TestParseTheory:
    def test_probability_annotated_law(self):
        doc = parse_theory("shatters:0.9 <- throws_suzy.\n")
        (law,) = doc.theory.laws
        assert law.head[0].atom == Atom("shatters")
        assert law.head[0].prob == Fraction(9, 10)
        assert law.body == (Literal(Atom("throws_suzy")),)

    def test_deterministic_law_sugar(self):
        doc = parse_theory("b <- c.\n")
        (law,) = doc.theory.laws
        assert law.head[0].prob == Fraction(1)
        assert not law.head[0].symbolic

    def test_star_probability_is_flagged_half(self):
        doc = parse_theory("antidote:*.\n")
        (law,) = doc.theory.laws
        assert law.head[0].prob == Fraction(1, 2)
        assert law.head[0].symbolic
        assert law.body == ()

    def test_labels_and_negated_bodies(self):
        doc = parse_theory("@pois: poison <- ~change_of_heart.\n")
        (law,) = doc.theory.laws
        assert law.label == "pois"
        assert law.body == (Literal(Atom("change_of_heart"), False),)

    def test_multi_alternative_head(self):
        doc = parse_theory("a:1/3; b:1/3 <- c.\n")
        (law,) = doc.theory.laws
        assert [alt.prob for alt in law.head] == [Fraction(1, 3), Fraction(1, 3)]

    def test_rational_and_decimal_agree(self):
        one = parse_theory("a:9/10.\n").theory.laws[0].head[0].prob
        two = parse_theory("a:0.9.\n").theory.laws[0].head[0].prob
        assert one == two == Fraction(9, 10)

    def test_exogenous_directive(self):
        doc = parse_theory("exogenous a, b.\nc <- a.\n")
        assert doc.theory.exogenous == frozenset({Atom("a"), Atom("b")})

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_theory("% nothing here\n\n  a.  % trailing\n")
        assert len(doc.theory.laws) == 1

    def test_law_lines_recorded(self):
        doc = parse_theory("% c\na.\n\nb.\n")
        assert doc.law_lines == (2, 4)

    def test_law_lines_skip_comment_only_and_blank_lines_between_laws(self):
        text = "exogenous e.\na <- e.\n% one\n\n   \t\n  % two\nb <- a. % three\n\n%\nc <- b.\n"
        assert parse_theory(text).law_lines == (2, 7, 10)

    @pytest.mark.parametrize("text, line, column", [
        ("a. b\nc.\n", 1, 4),
        ("exogenous e.  e\na <- e.\n", 1, 15),
        ("% first\na.\n\nb <- a. c % note\n% last\n", 4, 9),
    ])
    def test_trailing_input_after_the_dot_is_pinned(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_theory(text)
        assert str(err.value) == f"unexpected input after '.' (line {line}, column {column})"
        assert (err.value.line, err.value.column) == (line, column)

    def test_a_word_where_a_probability_belongs_is_a_parse_error(self):
        with pytest.raises(ParseError, match=r"expected a probability \(decimal, num/den, or \*\)") as err:
            parse_theory("a:x.\n")
        assert (err.value.line, err.value.column) == (1, 3)

    def test_probability_above_one_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_theory("a:1.2.\n")
        assert err.value.line == 1

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_theory("a <- b\n")

    def test_unknown_directive_is_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("endogenous a.\n")

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("a. b\n")

    def test_reserved_word_as_atom_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("a <- none.\n")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("a:1/0.\n")

    def test_one_parse_makes_one_atom_per_distinct_name(self, monkeypatch):
        made = []

        def counting(name, _atom=textio.Atom):
            made.append(name)
            return _atom(name)

        monkeypatch.setattr(textio, "Atom", counting)
        text = "exogenous a0.\n" + "".join(f"a{i} <- a{i - 1}.\n" for i in range(1, 301))
        theory = parse_theory(text).theory
        assert len(made) == 301 and len(set(made)) == 301
        assert theory.laws[-1].head[0].atom == Atom("a300")
        assert all(type(alt.atom) is Atom for law in theory.laws for alt in law.head)
        # The map lives as long as one parse: the next one checks again.
        parse_theory(text)
        assert len(made) == 602

    def test_a_bad_name_after_good_ones_keeps_its_position(self):
        with pytest.raises(ParseError) as err:
            parse_theory("a.\nb <- a, a, Bad.\n")
        assert (err.value.line, err.value.column) == (2, 12)

    def test_numeral_past_the_int_digit_limit_parses_exactly(self):
        limit = sys.get_int_max_str_digits()
        decimal = parse_theory("a:0." + "1" * 5000 + ".\n").theory.laws[0].head[0].prob
        assert decimal == Fraction((10 ** 5000 - 1) // 9, 10 ** 5000)
        ratio = parse_theory(f"a:1 /\t{'0' * 4999}3.\n").theory.laws[0].head[0].prob
        assert ratio == Fraction(1, 3)
        with pytest.raises(ParseError, match="denominator is zero"):
            parse_theory("a:1/" + "0" * 5000 + ".\n")
        assert sys.get_int_max_str_digits() == limit

    def test_numeral_past_the_digit_cap_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_theory("a:0." + "1" * 100_001 + ".\n")
        assert "too many digits" in str(err.value)


class TestParseStory:
    def theory(self):
        return corpus.theory("suzy_billy")

    def test_two_step_story(self):
        story = parse_story(
            "context throws_suzy, throws_billy.\nr1 -> shatters.\nr2 -> shatters.\n",
            self.theory(),
        )
        assert story.context == frozenset({Atom("throws_suzy"), Atom("throws_billy")})
        assert [(s.label, s.outcome) for s in story.steps] == [
            ("r1", Atom("shatters")), ("r2", Atom("shatters")),
        ]

    def test_no_effect_rejected_on_total_head(self):
        theory = load_theory("exogenous c.\nb <- c.\n")
        with pytest.raises(NoEffectNotAllowedError):
            parse_story("context c.\nr1 -> none.\n", theory)

    def test_no_effect_allowed_with_residual_mass(self):
        story = parse_story("context throws_suzy.\nr1 -> none.\n", self.theory())
        assert story.steps[0].outcome is NO_EFFECT

    def test_context_only_story(self):
        story = parse_story("context throws_suzy.\n", self.theory())
        assert story.steps == ()

    def test_empty_context(self):
        theory = corpus.theory("bogus_prevention")
        story = parse_story("context.\ncoh -> change_of_heart.\n", theory)
        assert story.context == frozenset()

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            parse_story("context.\nr9 -> shatters.\n", self.theory())

    def test_outcome_not_in_head(self):
        with pytest.raises(OutcomeNotInHeadError):
            parse_story("context.\nr1 -> throws_suzy.\n", self.theory())

    def test_story_must_start_with_context(self):
        with pytest.raises(ParseError):
            parse_story("r1 -> shatters.\n", self.theory())

    @pytest.mark.parametrize("text, line, column", [
        ("context throws_suzy. r1 -> shatters.\nr2 -> none.\n", 1, 22),
        ("% c\ncontext throws_suzy.\n\nr1 -> shatters. x % note\n% end\n", 4, 17),
    ])
    def test_trailing_input_after_the_dot_is_pinned(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_story(text, self.theory())
        assert str(err.value) == f"unexpected input after '.' (line {line}, column {column})"
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text", ["", "% only a comment\n\n  % and another\n"])
    def test_a_story_without_statements_has_no_context_line(self, text):
        with pytest.raises(ParseError) as err:
            parse_story(text, self.theory())
        assert str(err.value) == "a story must start with a 'context' line (line 1)"
        assert (err.value.line, err.value.column) == (1, None)


class TestFormulasAndContexts:
    def test_precedence_negation_conjunction_disjunction(self):
        f = parse_formula("a | b & !c")
        assert f == Disjunction((
            FormulaAtom(Atom("a")),
            Conjunction((FormulaAtom(Atom("b")), Negation(FormulaAtom(Atom("c"))))),
        ))

    def test_parentheses(self):
        assert parse_formula("a | (b & !c)") == parse_formula("a | b & !c")
        assert parse_formula("(a | b) & c") == Conjunction((
            Disjunction((FormulaAtom(Atom("a")), FormulaAtom(Atom("b")))),
            FormulaAtom(Atom("c")),
        ))

    def test_conjunction_with_negation(self):
        f = parse_formula("shatters & !dead")
        assert f == Conjunction((
            FormulaAtom(Atom("shatters")), Negation(FormulaAtom(Atom("dead"))),
        ))

    def test_constants(self):
        assert parse_formula("true") is TRUE

    def test_empty_formula_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("")

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("a b")

    def test_nesting_up_to_the_cap_parses(self):
        deep = MAX_FORMULA_NESTING
        assert parse_formula("(" * deep + "a" + ")" * deep) == FormulaAtom(Atom("a"))
        f = parse_formula("!" * deep + "a")
        for _ in range(deep):
            f = f.operand
        assert f == FormulaAtom(Atom("a"))

    @pytest.mark.parametrize("text", [
        "!" * 3000 + "a",
        "(" * 400 + "a" + ")" * 400,
        "(!" * (MAX_FORMULA_NESTING // 2 + 1) + "a" + ")" * (MAX_FORMULA_NESTING // 2 + 1),
    ], ids=["bangs", "parens", "mixed"])
    def test_nesting_past_the_cap_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="formula nested too deeply"):
            parse_formula(text)

    def test_context_parsing(self):
        assert parse_context("") == frozenset()
        assert parse_context(" a , b ") == frozenset({Atom("a"), Atom("b")})

    def test_literal_parsing(self):
        assert parse_literal("~death") == Literal(Atom("death"), False)
        assert parse_literal("death") == Literal(Atom("death"))


class TestSerialization:
    def test_exact_value_survives_decimal_input(self):
        theory = load_theory("shatters:0.9 <- throws_suzy.\nexogenous throws_suzy.\n")
        text = serialize_theory(theory)
        assert "9/10" in text or "0.9" in text
        again = load_theory(text)
        assert again.laws[0].head[0].prob == Fraction(9, 10)

    def test_labels_written_explicitly(self):
        theory = load_theory("a:1/2.\n")
        assert "@r1:" in serialize_theory(theory)

    def test_exogenous_line_sorted(self):
        theory = load_theory("exogenous b, a.\nc <- a.\n")
        assert serialize_theory(theory).splitlines()[0] == "exogenous a, b."

    def test_star_round_trips(self):
        theory = load_theory("antidote:*.\n")
        text = serialize_theory(theory)
        assert ":*" in text
        assert load_theory(text) == theory

    def test_value_past_the_int_digit_limit_round_trips(self):
        # 4300 decimals reduce to a denominator of 4301 digits.
        theory = load_theory("a:0." + "1" * 4300 + ".\n")
        text = serialize_theory(theory)
        assert f"/1{'0' * 4300}." in text
        assert load_theory(text) == theory

    @pytest.mark.parametrize("entry", corpus.entries(), ids=lambda e: e.name)
    def test_corpus_round_trip(self, entry):
        first = load_theory(corpus.read_text(entry.theory_file))
        second = load_theory(serialize_theory(first))
        assert first == second


class TestDotExport:
    def test_two_thrower_tree_has_seven_nodes(self):
        theory = corpus.theory("suzy_billy")
        ctx = parse_context("throws_suzy, throws_billy")
        dot = export_tree_dot(build_tree(theory, ctx))
        assert dot.count("[label=") - dot.count("->") == 7
        assert dot.count("->") == 6
        assert "r1: shatters 9/10" in dot

    def test_empty_theory_single_node(self):
        dot = export_tree_dot(build_tree(load_theory(""), frozenset()))
        assert dot.count("->") == 0
        assert 'n0 [label="{}"]' in dot

    def test_replayed_story_is_a_path(self):
        theory = corpus.theory("bogus_prevention")
        branch = replay_story(
            theory, corpus.story("bogus_prevention_coh_first.story", theory)
        )
        dot = export_tree_dot(branch, theory=theory)
        assert dot.count("->") == 2
        assert dot.count("[label=") - 2 == 3
        assert "coh: change_of_heart 1/2" in dot

    @pytest.mark.parametrize("outcome", [Atom("shatters"), NO_EFFECT])
    def test_branch_event_outside_the_law_outcomes_is_rejected(self, outcome):
        theory = load_theory("exogenous t.\nbreaks <- t.\nshatters:1/2 <- t.\n")
        branch = replay_story(theory, parse_story("context t.\nr1 -> breaks.\n", theory))
        forged = Branch(branch.states, (Event("r1", outcome),))
        with pytest.raises(InvalidOutcomeError):
            export_tree_dot(forged, theory=theory)

    def test_a_value_that_is_neither_a_tree_nor_a_branch_is_rejected(self):
        with pytest.raises(TypeError, match="cannot export str as DOT"):
            export_tree_dot("digraph {}")

    def test_mask_formatter_writes_what_format_interp_writes(self):
        # In the wide theory exogenous atoms are numbered first and a10
        # sorts before a2, so name order is not bit order, and its masks
        # pass 64 bits. One atom makes the formatter pick by one index.
        wide = ["exogenous " + ", ".join(f"x{i}" for i in range(12, 0, -1)) + ".", "a0 <- x12."]
        wide += [f"a{i}:1/2 <- a{i - 1}." for i in range(1, 70)]
        rng = random.Random(19)
        for source in (
            "exogenous b, a10, a9.\nzz <- b.\nc_1:1/2; a:1/2 <- ~zz, a9.\n",
            "a.\n",
            "\n".join(wide) + "\n",
        ):
            numbering = load_theory(source).numbering
            text = interp_formatter(numbering)
            atoms = numbering.atoms
            if len(atoms) <= 8:
                subsets = [chosen for k in range(len(atoms) + 1) for chosen in combinations(atoms, k)]
            else:
                assert len(atoms) > 64 and sorted(atoms) != atoms
                subsets = [(), tuple(atoms)] + [(atom,) for atom in atoms]
                subsets += [tuple(a for a in atoms if a != atom) for atom in atoms]
                subsets += [tuple(rng.sample(atoms, rng.randrange(len(atoms)))) for _ in range(200)]
            # Every mask twice: the second time reads the formatter's memory.
            for chosen in subsets + subsets:
                assert text(numbering.atom_mask(chosen)) == format_interp(frozenset(chosen))
        assert interp_formatter(load_theory("").numbering)(0) == "{}"
