"""Theory transformations and the two actual-causation settings."""

import sys
import threading
from fractions import Fraction

import pytest

from cplogic import causation, corpus
from cplogic.causation import (
    CauseClassification,
    CauseQuery,
    PartialVerdict,
    Verdict,
    actual_cause,
    classify_causes,
    counterfactual_dependency,
    default_candidates,
    effect_index,
    fix_story,
    force,
    prevent,
    relevant_theory,
)
from cplogic.core import Atom, CPLaw, HeadAlternative, Literal, Theory, literal_formula
from cplogic.engine import (
    NO_EFFECT,
    Branch,
    LawStatus,
    enumerate_branches,
    law_status,
    prob_formula,
    replay_story,
)
from cplogic.errors import (
    CPLogicError,
    EffectNeverHoldsError,
    ExogenousForcedError,
    PreconditionNotInFinalStateError,
    SelfCauseQueryError,
    UnknownAtomError,
)
from cplogic.textio import load_theory, parse_literal, parse_story, serialize_theory


def lit(text: str) -> Literal:
    return parse_literal(text)


def interp(names: str) -> frozenset:
    return frozenset(Atom(n) for n in names.split()) if names else frozenset()


@pytest.fixture
def suzy():
    return corpus.theory("suzy_billy")


@pytest.fixture
def suzy_branch(suzy):
    return replay_story(suzy, corpus.story("suzy_billy_suzy_first.story", suzy))


@pytest.fixture
def bogus():
    return corpus.theory("bogus_prevention")


class TestFixStory:
    def test_fired_laws_become_deterministic(self, suzy, suzy_branch):
        fixed = fix_story(suzy, suzy_branch)
        assert [law.label for law in fixed.laws] == ["r1", "r2"]
        for law in fixed.laws:
            assert law.head[0].atom == Atom("shatters")
            assert law.head[0].prob == 1

    def test_empty_branch_keeps_the_theory(self, suzy):
        branch = replay_story(suzy, parse_story("context throws_suzy.\n", suzy))
        assert fix_story(suzy, branch) == suzy

    def test_no_effect_firings_are_dropped(self, suzy):
        story = parse_story(
            "context throws_suzy, throws_billy.\nr1 -> shatters.\nr2 -> none.\n", suzy
        )
        fixed = fix_story(suzy, replay_story(suzy, story))
        assert [law.label for law in fixed.laws] == ["r1"]

    def test_events_outside_the_theory_are_ignored(self, suzy, suzy_branch):
        restricted = Theory((suzy.laws[0],), suzy.exogenous)
        fixed = fix_story(restricted, suzy_branch)
        assert [law.label for law in fixed.laws] == ["r1"]

    def test_story_reproduction(self, suzy, suzy_branch):
        fixed = fix_story(suzy, suzy_branch)
        final = suzy_branch.final_state.interp
        assert prob_formula(
            fixed,
            suzy_branch.states[0].interp,
            _exact_world(fixed, final),
        ) == 1


def _exact_world(theory, target):
    from cplogic.core import Conjunction, FormulaAtom, Negation

    parts = [FormulaAtom(a) for a in sorted(target)]
    parts += [Negation(FormulaAtom(a)) for a in sorted(theory.vocabulary - target)]
    return Conjunction(tuple(parts))


class TestPrevent:
    def test_prevented_head_drops_the_law(self):
        theory = load_theory("exogenous throws_suzy.\nshatters <- throws_suzy.\n")
        assert prevent(theory, Atom("shatters")).laws == ()

    def test_remaining_alternatives_not_renormalized(self):
        theory = load_theory("a:0.3; b:0.4 <- c.\nc:1/2.\n")
        out = prevent(theory, Atom("a"))
        first = out.laws[0]
        assert [alt.atom for alt in first.head] == [Atom("b")]
        assert first.head[0].prob == Fraction(4, 10)
        assert first.no_effect_prob == Fraction(6, 10)

    def test_atom_absent_from_heads_changes_nothing(self, suzy):
        assert prevent(suzy, Atom("throws_suzy")) == suzy

    def test_prevention_soundness_on_the_corpus(self):
        for name, ctx in (
            ("suzy_billy", "throws_suzy throws_billy"),
            ("hall_left", "a c d"),
            ("hall_right", "a c"),
            ("bogus_prevention", ""),
            ("forest_conj", "match1 match2"),
            ("forest_disj", "match1 match2"),
        ):
            theory = corpus.theory(name)
            for atom in sorted(theory.endogenous):
                trimmed = prevent(theory, atom)
                from cplogic.core import FormulaAtom

                assert prob_formula(
                    trimmed, interp(ctx), FormulaAtom(atom), vocabulary=theory.vocabulary
                ) == 0


class TestForce:
    def test_adds_a_vacuous_deterministic_law(self, bogus):
        from cplogic.core import FormulaAtom

        forced = force(bogus, Atom("death"))
        assert forced.laws[-1].label == "force_death"
        assert prob_formula(forced, frozenset(), FormulaAtom(Atom("death"))) == 1

    def test_forcing_a_derivable_atom_keeps_probability_one(self):
        from cplogic.core import FormulaAtom

        theory = load_theory("a.\n")
        forced = force(theory, Atom("a"))
        assert prob_formula(forced, frozenset(), FormulaAtom(Atom("a"))) == 1

    def test_exogenous_atom_rejected(self, suzy):
        with pytest.raises(ExogenousForcedError):
            force(suzy, Atom("throws_suzy"))

    def test_fresh_label_avoids_collisions(self):
        theory = load_theory("@force_a: b.\n")
        forced = force(theory, Atom("a"))
        assert forced.laws[-1].label == "force_a_2"


class TestCounterfactualDependency:
    def test_restricted_two_thrower_theory(self, suzy, suzy_branch):
        restricted = Theory((suzy.laws[0],), suzy.exogenous)
        assert counterfactual_dependency(
            restricted, suzy_branch, lit("throws_suzy"), lit("shatters")
        )

    def test_conjunctive_fire_depends_on_each_match(self):
        theory = corpus.theory("forest_conj")
        branch = replay_story(theory, corpus.story("forest_conj_both.story", theory))
        assert counterfactual_dependency(theory, branch, lit("match1"), lit("burn"))
        assert counterfactual_dependency(theory, branch, lit("match2"), lit("burn"))

    def test_redundant_fire_masks_the_dependency(self):
        theory = corpus.theory("forest_disj")
        story = parse_story(
            "context match1, match2.\nr1 -> burn.\nr2 -> burn.\n", theory
        )
        branch = replay_story(theory, story)
        assert not counterfactual_dependency(theory, branch, lit("match1"), lit("burn"))

    def test_preconditions_checked(self, suzy):
        branch = replay_story(
            suzy, parse_story("context throws_suzy.\nr1 -> none.\n", suzy)
        )
        with pytest.raises(PreconditionNotInFinalStateError):
            counterfactual_dependency(suzy, branch, lit("throws_suzy"), lit("shatters"))


class TestEffectIndex:
    def test_first_state_where_the_atom_holds(self, suzy_branch):
        assert effect_index(suzy_branch, lit("shatters")) == 1

    def test_negative_effect_uses_the_overestimate(self, bogus):
        branch = replay_story(
            bogus, corpus.story("bogus_prevention_coh_first.story", bogus)
        )
        assert effect_index(branch, lit("~death")) == 1

    def test_exogenous_effect_holds_at_the_root(self, suzy, suzy_branch):
        assert effect_index(suzy_branch, lit("throws_suzy")) == 0

    def test_effect_never_holds(self, suzy):
        branch = replay_story(
            suzy, parse_story("context throws_suzy.\nr1 -> shatters.\n", suzy)
        )
        with pytest.raises(EffectNeverHoldsError):
            effect_index(branch, lit("~shatters"))


class TestRelevantTheory:
    def test_only_the_first_hit_matters(self, suzy, suzy_branch):
        relevant = relevant_theory(suzy, suzy_branch, lit("shatters"))
        assert [law.label for law in relevant.laws] == ["r1"]

    def test_unfired_threat_laws_stay_relevant(self, bogus):
        branch = replay_story(
            bogus, corpus.story("bogus_prevention_coh_first.story", bogus)
        )
        relevant = relevant_theory(bogus, branch, lit("~death"))
        assert [law.label for law in relevant.laws] == ["coh", "pois", "dth"]

    def test_settled_threat_laws_drop_out(self, bogus):
        branch = replay_story(
            bogus, corpus.story("bogus_prevention_anti_first.story", bogus)
        )
        relevant = relevant_theory(bogus, branch, lit("~death"))
        labels = [law.label for law in relevant.laws]
        assert "pois" not in labels
        assert "anti" in labels and "dth" in labels

    def test_laws_are_shared_not_copied(self, suzy, suzy_branch):
        relevant = relevant_theory(suzy, suzy_branch, lit("shatters"))
        assert relevant.laws[0] is suzy.laws[0]

    def test_contains_every_law_fired_before_the_effect(self):
        theory = corpus.theory("hall_left")
        branches = list(enumerate_branches(theory, interp("a c d")))
        for branch in branches:
            j = effect_index(branch, lit("e"))
            relevant = relevant_theory(theory, branch, lit("e"))
            labels = {law.label for law in relevant.laws}
            assert {e.label for e in branch.events[:j]} <= labels


class TestActualCause:
    def test_first_hit_is_the_cause(self, suzy, suzy_branch):
        verdict = actual_cause(
            suzy, suzy_branch, CauseQuery(lit("throws_suzy"), lit("shatters"))
        )
        assert verdict.is_cause
        assert verdict.effect_prob == 0
        expected = Theory(
            (CPLaw((HeadAlternative(Atom("shatters"), Fraction(1)),),
                   (Literal(Atom("throws_suzy")),), "r1"),),
            suzy.exogenous,
        )
        assert verdict.counterfactual == expected
        assert verdict.context == interp("throws_billy")

    def test_preempted_thrower_is_not(self, suzy, suzy_branch):
        verdict = actual_cause(
            suzy, suzy_branch, CauseQuery(lit("throws_billy"), lit("shatters"))
        )
        assert not verdict.is_cause
        assert verdict.effect_prob == 1

    def test_verdict_and_probability_agree(self, bogus):
        for story in ("bogus_prevention_coh_first.story",
                      "bogus_prevention_anti_first.story"):
            branch = replay_story(bogus, corpus.story(story, bogus))
            for cause in ("antidote", "change_of_heart"):
                verdict = actual_cause(
                    bogus, branch, CauseQuery(lit(cause), lit("~death"))
                )
                assert verdict.is_cause == (verdict.effect_prob == 0)

    def test_needless_antidote_is_never_a_cause(self, bogus):
        for story in ("bogus_prevention_coh_first.story",
                      "bogus_prevention_anti_first.story"):
            branch = replay_story(bogus, corpus.story(story, bogus))
            verdict = actual_cause(
                bogus, branch, CauseQuery(lit("antidote"), lit("~death"))
            )
            assert not verdict.is_cause

    def test_change_of_heart_saves_only_when_it_comes_first(self, bogus):
        first = replay_story(
            bogus, corpus.story("bogus_prevention_coh_first.story", bogus)
        )
        second = replay_story(
            bogus, corpus.story("bogus_prevention_anti_first.story", bogus)
        )
        query = CauseQuery(lit("change_of_heart"), lit("~death"))
        assert actual_cause(bogus, first, query).is_cause
        assert not actual_cause(bogus, second, query).is_cause

    def test_omission_as_a_cause(self):
        # The treatment event fires without effect, so the patient stays
        # untreated and dies; the absence of treatment caused the death.
        theory = load_theory("@treat: treatment:*.\n@die: death <- ~treatment.\n")
        story = parse_story("context.\ntreat -> none.\ndie -> death.\n", theory)
        branch = replay_story(theory, story)
        verdict = actual_cause(theory, branch, CauseQuery(lit("~treatment"), lit("death")))
        assert verdict.is_cause

    def test_negative_exogenous_cause_flips_the_context(self):
        theory = load_theory("exogenous rain.\nfire <- ~rain.\n")
        story = parse_story("context.\nr1 -> fire.\n", theory)
        branch = replay_story(theory, story)
        verdict = actual_cause(theory, branch, CauseQuery(lit("~rain"), lit("fire")))
        assert verdict.is_cause
        assert verdict.context == interp("rain")

    def test_self_cause_rejected(self):
        with pytest.raises(SelfCauseQueryError):
            CauseQuery(lit("shatters"), lit("shatters"))

    def test_cause_must_hold_in_the_final_state(self, suzy):
        story = parse_story(
            "context throws_suzy.\nr1 -> shatters.\n", suzy
        )
        branch = replay_story(suzy, story)
        with pytest.raises(PreconditionNotInFinalStateError):
            actual_cause(suzy, branch, CauseQuery(lit("throws_billy"), lit("shatters")))


class TestClassifyCauses:
    def test_two_throwers_are_only_possible_causes(self, suzy):
        out = classify_causes(
            suzy, interp("throws_suzy throws_billy shatters"), lit("shatters")
        )
        for name in ("throws_suzy", "throws_billy"):
            verdict = out[lit(name)]
            assert verdict.classification is CauseClassification.POSSIBLE_ONLY
            assert (verdict.supporting, verdict.branches) == (3, 6)

    def test_single_branch_matches_the_complete_setting(self):
        theory = corpus.theory("forest_conj")
        out = classify_causes(theory, interp("match1 match2 burn"), lit("burn"))
        for name in ("match1", "match2"):
            verdict = out[lit(name)]
            assert verdict.classification is CauseClassification.CERTAIN
            assert (verdict.supporting, verdict.branches) == (1, 1)

    def test_blocked_blocker_certain_and_self_defusing_threat_not(self):
        left = classify_causes(
            corpus.theory("hall_left"), interp("a b c d e"), lit("e")
        )
        assert left[lit("c")].classification is CauseClassification.CERTAIN
        assert left[lit("a")].classification is CauseClassification.CERTAIN
        assert left[lit("d")].classification is CauseClassification.NOT_POSSIBLE

        right = classify_causes(
            corpus.theory("hall_right"), interp("a b c d e"), lit("e")
        )
        assert right[lit("c")].classification is CauseClassification.NOT_POSSIBLE
        assert right[lit("a")].classification is CauseClassification.CERTAIN
        assert right[lit("b")].classification is CauseClassification.POSSIBLE_ONLY
        assert right[lit("b")].supporting == 2 and right[lit("b")].branches == 3

    def test_bogus_prevention_partial_setting(self, bogus):
        out = classify_causes(bogus, interp("antidote change_of_heart"), lit("~death"))
        assert out[lit("antidote")].classification is CauseClassification.NOT_POSSIBLE
        assert out[lit("change_of_heart")].classification is CauseClassification.POSSIBLE_ONLY
        assert out[lit("~poison")].classification is CauseClassification.POSSIBLE_ONLY
        assert out[lit("change_of_heart")].branches == 2

    def test_unreachable_outcome_reports_not_possible(self, suzy):
        out = classify_causes(
            suzy, interp("throws_suzy shatters"), lit("shatters"),
            context=interp("throws_suzy throws_billy"),
        )
        assert all(
            v.classification is CauseClassification.NOT_POSSIBLE and v.branches == 0
            for v in out.values()
        )

    def test_candidates_default_to_literals_holding_in_the_outcome(self, suzy):
        out = classify_causes(
            suzy, interp("throws_suzy throws_billy shatters"), lit("shatters")
        )
        assert set(out) == {lit("throws_suzy"), lit("throws_billy")}

    def test_explicit_candidate_list_respected(self, suzy):
        out = classify_causes(
            suzy,
            interp("throws_suzy throws_billy shatters"),
            lit("shatters"),
            candidates=[lit("throws_suzy")],
        )
        assert set(out) == {lit("throws_suzy")}

    def test_explicit_self_candidate_rejected(self, suzy):
        with pytest.raises(SelfCauseQueryError):
            classify_causes(
                suzy,
                interp("throws_suzy throws_billy shatters"),
                lit("shatters"),
                candidates=[lit("shatters")],
            )

    def test_effect_must_hold_in_the_outcome(self, suzy):
        with pytest.raises(PreconditionNotInFinalStateError):
            classify_causes(suzy, interp("throws_suzy"), lit("shatters"))


class TestBoundaryCuts:
    def test_branch_inconsistent_with_theory_rejected(self):
        from cplogic.errors import BranchTheoryMismatchError

        one = load_theory("exogenous c.\n@x: a <- c.\n")
        other = load_theory("exogenous c.\n@x: b <- c.\n")
        branch = replay_story(one, parse_story("context c.\nx -> a.\n", one))
        with pytest.raises(BranchTheoryMismatchError):
            fix_story(other, branch)

    def test_negative_effect_settled_from_the_start(self):
        # Death is impossible already at the root: the absence of poison
        # is the live reason the victim stays alive.
        theory = load_theory("exogenous sip.\ndeath <- poison, ~antidote.\n")
        branch = replay_story(theory, parse_story("context sip.\n", theory))
        assert effect_index(branch, lit("~death")) == 0
        verdict = actual_cause(
            theory, branch, CauseQuery(lit("~poison"), lit("~death"))
        )
        assert verdict.is_cause

    def test_exogenous_effect_has_no_causes(self):
        theory = load_theory("exogenous rain, wind.\nwet <- rain.\n")
        branch = replay_story(
            theory, parse_story("context rain, wind.\nr1 -> wet.\n", theory)
        )
        assert effect_index(branch, lit("rain")) == 0
        verdict = actual_cause(theory, branch, CauseQuery(lit("wind"), lit("rain")))
        assert not verdict.is_cause

    def test_event_after_the_effect_is_never_its_cause(self):
        theory = load_theory("exogenous go.\nfirst <- go.\nsecond <- first.\n")
        branch = replay_story(
            theory, parse_story("context go.\nr1 -> first.\nr2 -> second.\n", theory)
        )
        verdict = actual_cause(theory, branch, CauseQuery(lit("second"), lit("first")))
        assert not verdict.is_cause


def _relabel(theory, mapping):
    return Theory(
        tuple(
            CPLaw(law.head, law.body, mapping.get(law.label, law.label))
            for law in theory.laws
        ),
        theory.exogenous,
    )


class TestTransformationProperties:
    def test_prevent_commutes_with_label_renaming(self, suzy):
        mapping = {"r1": "suzy", "r2": "billy"}
        one = _relabel(prevent(suzy, Atom("shatters")), mapping)
        two = prevent(_relabel(suzy, mapping), Atom("shatters"))
        assert one == two

    def test_force_commutes_with_label_renaming(self, bogus):
        mapping = {"dth": "death_law"}
        one = _relabel(force(bogus, Atom("death")), mapping)
        two = force(_relabel(bogus, mapping), Atom("death"))
        assert one == two

    def test_prefix_fixing_is_weaker(self, suzy, suzy_branch):
        # Every determinized law of a prefix shows up in the full fixing.
        full = fix_story(suzy, suzy_branch)
        prefix = Branch(suzy_branch.states[:2], suzy_branch.events[:1])
        partial = fix_story(suzy, prefix)
        fixed_labels = {e.label for e in prefix.events}
        for law in partial.laws:
            if law.label in fixed_labels:
                assert law in full.laws


class TestUnknownQueryAtoms:
    """Query atoms outside the theory raise instead of getting a verdict."""

    def test_actual_cause_and_dependency(self, suzy, suzy_branch):
        for cause, effect in (("~zzz", "shatters"), ("zzz", "shatters"), ("throws_suzy", "~zzz")):
            with pytest.raises(UnknownAtomError, match="query mentions unknown atoms: zzz"):
                actual_cause(suzy, suzy_branch, CauseQuery(lit(cause), lit(effect)))
            with pytest.raises(UnknownAtomError, match="query mentions unknown atoms: zzz"):
                counterfactual_dependency(suzy, suzy_branch, lit(cause), lit(effect))

    def test_classify_causes(self, suzy):
        outcome = interp("throws_suzy throws_billy shatters")
        with pytest.raises(UnknownAtomError, match="query mentions unknown atoms: zzz"):
            classify_causes(suzy, outcome, lit("shatters"), candidates=[lit("zzz"), lit("~zzz")])
        with pytest.raises(UnknownAtomError, match="query mentions unknown atoms: zzz"):
            classify_causes(suzy, outcome, lit("~zzz"))


def _minting_verdict(theory, branch, query):
    """``actual_cause`` with a counterfactual step that always builds
    fresh laws and theories, as it did before unchanged ones were reused."""
    cause, effect = query.cause, query.effect
    j = effect_index(branch, effect)
    cut = branch.states[j] if not effect.positive else branch.states[max(j - 1, 0)]
    fired_before = {event.label for event in branch.events[:j]}
    relevant = Theory(tuple(
        law for law in theory.laws
        if law.label in fired_before or law_status(theory, cut, law) is LawStatus.IMPOSSIBLE
    ), theory.exogenous)
    realized = {event.label: event.outcome for event in branch.events}
    fixed = []
    for law in relevant.laws:
        outcome = realized.get(law.label, law)
        if outcome is law:
            fixed.append(law)
        elif outcome is not NO_EFFECT:
            fixed.append(CPLaw((HeadAlternative(outcome, Fraction(1)),), law.body, law.label))
    fixed = Theory(tuple(fixed), theory.exogenous)
    context = branch.states[0].interp
    if cause.positive:
        laws = []
        for law in fixed.laws:
            kept = tuple(alt for alt in law.head if alt.atom != cause.atom)
            if kept:
                laws.append(CPLaw(kept, law.body, law.label))
        twisted, context = Theory(tuple(laws), fixed.exogenous), context - {cause.atom}
    elif cause.atom in theory.exogenous:
        twisted, context = Theory(fixed.laws, fixed.exogenous), context | {cause.atom}
    else:
        twisted = force(fixed, cause.atom)
    prob = prob_formula(twisted, context, literal_formula(effect), vocabulary=theory.vocabulary)
    return Verdict(prob == 0, j, relevant, twisted, context, prob)


class TestCounterfactualReuse:
    """The counterfactual step returns its input theory when it keeps
    every law, so an unchanged theory is numbered once."""

    @pytest.fixture
    def chain(self):
        theory = load_theory("exogenous a0.\n" + "".join(f"a{i} <- a{i - 1}.\n" for i in range(1, 6)))
        story = parse_story("context a0.\n" + "".join(f"r{i} -> a{i}.\n" for i in range(1, 6)), theory)
        return theory, replay_story(theory, story)

    def test_deterministic_chain_keeps_the_theory_object(self, chain):
        theory, branch = chain
        verdict = actual_cause(theory, branch, CauseQuery(lit("a0"), lit("a5")))
        assert verdict.is_cause and verdict.cut_index == 5
        assert verdict.relevant is theory
        assert verdict.counterfactual is theory
        assert verdict.context == frozenset()
        assert verdict == _minting_verdict(theory, branch, CauseQuery(lit("a0"), lit("a5")))

    def test_each_step_returns_an_unchanged_input(self, chain, suzy):
        theory, branch = chain
        assert relevant_theory(theory, branch, lit("a5")) is theory
        assert fix_story(theory, branch) is theory
        assert prevent(theory, Atom("a0")) is theory
        assert prevent(suzy, Atom("throws_suzy")) is suzy
        empty = replay_story(suzy, parse_story("context throws_suzy.\n", suzy))
        assert fix_story(suzy, empty) is suzy

    def test_changed_steps_return_new_theories_sharing_kept_laws(self, chain, suzy, suzy_branch):
        theory, branch = chain
        cut = relevant_theory(theory, branch, lit("a3"))
        assert [law.label for law in cut.laws] == ["r1", "r2", "r3"]
        assert all(law is theory.law(law.label) for law in cut.laws)
        trimmed = prevent(theory, Atom("a2"))
        assert trimmed is not theory and len(trimmed.laws) == 4
        fixed = fix_story(suzy, suzy_branch)
        assert fixed is not suzy and fixed.laws[0] is not suzy.laws[0]
        assert fix_story(fixed, suzy_branch) is fixed  # its fired laws are deterministic already

    def test_verdicts_match_a_minting_step_on_random_theories(self):
        from randgen import random_cases

        checked = 0
        for theory, context in random_cases(200):
            branches = list(enumerate_branches(theory, context))
            for branch in branches[::max(1, len(branches) // 3)]:
                final = branch.final_state.interp
                holding = [Literal(a) for a in sorted(final)]
                holding += [Literal(a, False) for a in sorted(theory.vocabulary - final)]
                for effect in holding:
                    for cause in holding:
                        if cause == effect:
                            continue
                        query = CauseQuery(cause, effect)
                        try:
                            want = _minting_verdict(theory, branch, query)
                        except Exception as err:  # the step must raise the same error
                            with pytest.raises(type(err)):
                                actual_cause(theory, branch, query)
                            continue
                        got = actual_cause(theory, branch, query)
                        assert got == want
                        checked += 1
        assert checked > 1000


def _classify_per_branch(theory, final, effect, context, fresh):
    """``classify_causes`` with one uncached ``actual_cause`` per branch;
    appends each verdict to ``fresh``, in the order of the checks."""
    assert causation._verdict_memo.get() is None
    branches = list(enumerate_branches(theory, context, target=final))
    out = {}
    for cand in default_candidates(theory, final, effect):
        query = CauseQuery(cand, effect)
        verdicts = [actual_cause(theory, branch, query) for branch in branches]
        fresh.extend(verdicts)
        supporting = sum(verdict.is_cause for verdict in verdicts)
        if branches and supporting == len(branches):
            kind = CauseClassification.CERTAIN
        elif supporting:
            kind = CauseClassification.POSSIBLE_ONLY
        else:
            kind = CauseClassification.NOT_POSSIBLE
        out[cand] = PartialVerdict(kind, supporting, len(branches))
    return out


def _thrown(n):
    """n throwers ``shatters:1/2 <- tI.``, all thrown, and their outcome."""
    names = [f"t{i}" for i in range(1, n + 1)]
    theory = load_theory(
        f"exogenous {', '.join(names)}.\n" + "".join(f"shatters:1/2 <- {t}.\n" for t in names)
    )
    return theory, interp(" ".join(names + ["shatters"]))


class TestVerdictMemo:
    """``classify_causes`` computes one verdict per candidate and set of
    events before the effect, and only for the length of the call."""

    def test_matches_one_check_per_branch_on_random_theories(self, monkeypatch):
        from randgen import random_cases

        memoized = []

        def recording(theory, branch, query):
            verdict = actual_cause(theory, branch, query)
            memoized.append(verdict)
            return verdict

        monkeypatch.setattr(causation, "actual_cause", recording)
        classified = 0
        for theory, context in random_cases(300):
            finals = {branch.final_state.interp for branch in enumerate_branches(theory, context)}
            for final in sorted(finals, key=sorted):
                effects = [Literal(a) for a in sorted(final)]
                effects += [Literal(a, False) for a in sorted(theory.vocabulary - final)]
                for effect in effects:
                    fresh = []
                    memoized.clear()
                    try:
                        want = _classify_per_branch(theory, final, effect, context, fresh)
                    except CPLogicError as err:  # the memo must raise the same error
                        with pytest.raises(type(err)):
                            classify_causes(theory, final, effect)
                        continue
                    assert classify_causes(theory, final, effect) == want
                    assert memoized == fresh  # per branch, in the same order
                    classified += 1
        assert classified > 3000

    def test_one_counterfactual_per_candidate_and_prefix_set(self, monkeypatch):
        theory, final = _thrown(3)
        effect = lit("shatters")
        branches = list(enumerate_branches(theory, final & theory.exogenous, target=final))
        keys = {
            (cand, frozenset(b.events[:effect_index(b, effect)]))
            for cand in default_candidates(theory, final, effect)
            for b in branches
        }
        calls = []
        real = causation.prob_formula

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(causation, "prob_formula", counting)
        out = classify_causes(theory, final, effect)
        assert {v.classification for v in out.values()} == {CauseClassification.POSSIBLE_ONLY}
        assert len(branches) == 42 and len(keys) == 3 * 12
        assert len(calls) == len(keys)

    def test_memo_is_unset_after_the_call_returns_or_raises(self, suzy, suzy_branch, monkeypatch):
        outcome = interp("throws_suzy throws_billy shatters")
        query = CauseQuery(lit("throws_suzy"), lit("shatters"))
        calls = []
        real = causation.prob_formula

        def flaky(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("first call fails")
            return real(*args, **kwargs)

        monkeypatch.setattr(causation, "prob_formula", flaky)
        with pytest.raises(RuntimeError):
            classify_causes(suzy, outcome, lit("shatters"))
        assert causation._verdict_memo.get() is None
        first = actual_cause(suzy, suzy_branch, query)
        assert actual_cause(suzy, suzy_branch, query) == first
        assert len(calls) == 3  # each direct call computes afresh

        classify_causes(suzy, outcome, lit("shatters"))
        assert causation._verdict_memo.get() is None
        before = len(calls)
        actual_cause(suzy, suzy_branch, query)
        actual_cause(suzy, suzy_branch, query)
        assert len(calls) == before + 2

    def test_threads_classifying_at_once_get_the_serial_result(self):
        # The same query and events decide different verdicts in these two
        # theories (a third law makes shatters when t1 is prevented), so a
        # memo shared between the threads would mix them up.
        theory, final = _thrown(2)
        backup = load_theory(serialize_theory(theory) + "shatters <- ~t1.\n")
        theories = [theory, backup]
        effect = lit("shatters")
        serial = [classify_causes(t, final, effect) for t in theories]
        assert serial[0][lit("t1")] != serial[1][lit("t1")]
        barrier = threading.Barrier(2)
        results = [[], []]

        def classify(slot):
            barrier.wait(timeout=30)
            for k in range(40):
                results[slot].append(classify_causes(theories[(slot + k) % 2], final, effect))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=classify, args=(slot,)) for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot in (0, 1):
            assert results[slot] == [serial[(slot + k) % 2] for k in range(40)]
        assert causation._verdict_memo.get() is None
