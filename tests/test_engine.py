"""Execution semantics: states, overestimate, trees, branches, probabilities."""

import copy
import gc
import json
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from cplogic import corpus, engine
from cplogic.causation import fix_story
from cplogic.cli import main
from cplogic.core import (
    FALSE, Atom, CPLaw, Conjunction, Disjunction, FormulaAtom, HeadAlternative, Negation, Numbering, Record, TRUE,
    Theory, bit_positions, eval_formula,
)
from cplogic.engine import (
    NO_EFFECT,
    Branch,
    Event,
    LawStatus,
    TreeEdge,
    TreeNode,
    applicable_laws,
    build_tree,
    distribution,
    enumerate_branches,
    fire,
    initial_state,
    law_status,
    overestimate,
    prob_formula,
    replay_story,
)
from cplogic.errors import (
    BranchTheoryMismatchError,
    IllegalStepError,
    InvalidOutcomeError,
    NoEffectNotAllowedError,
    NonExogenousInContextError,
    NotApplicableError,
    OutcomeNotInHeadError,
    UnknownAtomError,
    UnknownLabelError,
)
from cplogic.textio import export_tree_dot, format_tree, load_theory, parse_formula, parse_story
from conftest import interp


class TestInitialState:
    def test_context_becomes_the_interpretation(self, suzy):
        state = initial_state(suzy, interp("throws_suzy throws_billy"))
        assert state.interp == interp("throws_suzy throws_billy")
        assert state.fired == frozenset()

    def test_empty_theory_empty_context(self):
        state = initial_state(load_theory(""), frozenset())
        assert state.interp == frozenset() and state.over == frozenset()

    def test_endogenous_atom_in_context_rejected(self, suzy):
        with pytest.raises(NonExogenousInContextError):
            initial_state(suzy, interp("shatters"))


class TestOverestimate:
    def test_bogus_prevention_after_the_change_of_heart(self, bogus):
        story = parse_story("context.\ncoh -> change_of_heart.\n", bogus)
        state = replay_story(bogus, story).final_state
        # Poison and death are no longer causable; the antidote still is.
        assert state.over == interp("change_of_heart antidote")

    def test_positive_reachability_closure(self):
        theory = load_theory(
            "exogenous a, e.\nb <- a.\nc <- b.\nd <- e.\n"
        )
        assert _overestimate_set(theory, interp("a")) == interp("a b c")

    def test_no_laws_means_interp_itself(self):
        theory = load_theory("exogenous a.\n")
        assert _overestimate_set(theory, interp("a")) == interp("a")

    def test_matches_independent_closure_on_random_theories(self):
        from randgen import random_cases

        for theory, context in random_cases(40):
            got = _overestimate_set(theory, context)
            assert got == _closure_oracle(theory, context, frozenset())


def _overestimate_set(theory, context):
    """The fixpoint from a context with no law fired, read back as atoms."""
    numbering = theory.numbering
    return numbering.atom_set(overestimate(theory, numbering.atom_mask(context), 0))


def _closure_oracle(theory, inter, fired):
    """Naive repeated-scan closure, kept independent of the engine path."""
    known = set(inter)
    while True:
        added = False
        for law in theory.laws:
            if law.label in fired:
                continue
            if any(lit.atom in inter for lit in law.body if not lit.positive):
                continue
            if all(lit.atom in known for lit in law.body if lit.positive):
                for alt in law.head:
                    if alt.atom not in known:
                        known.add(alt.atom)
                        added = True
        if not added:
            return frozenset(known)


class TestLawStatus:
    def test_initial_two_thrower_laws_applicable(self, suzy):
        state = initial_state(suzy, interp("throws_suzy throws_billy"))
        for law in suzy.laws:
            assert law_status(suzy, state, law) is LawStatus.APPLICABLE

    def test_bogus_laws_after_change_of_heart(self, bogus):
        story = parse_story("context.\ncoh -> change_of_heart.\n", bogus)
        state = replay_story(bogus, story).final_state
        assert law_status(bogus, state, bogus.law("pois")) is LawStatus.IMPOSSIBLE
        assert law_status(bogus, state, bogus.law("dth")) is LawStatus.IMPOSSIBLE
        assert law_status(bogus, state, bogus.law("anti")) is LawStatus.APPLICABLE
        assert law_status(bogus, state, bogus.law("coh")) is LawStatus.FIRED

    def test_pending_until_the_blocker_is_settled(self):
        theory = corpus.theory("hall_left")
        state = initial_state(theory, interp("a c d"))
        assert law_status(theory, state, theory.law("r1")) is LawStatus.PENDING
        assert law_status(theory, state, theory.law("r2")) is LawStatus.PENDING
        assert law_status(theory, state, theory.law("r3")) is LawStatus.APPLICABLE


class TestFire:
    def test_outcome_added_and_law_consumed(self, suzy):
        state = initial_state(suzy, interp("throws_suzy throws_billy"))
        nxt = fire(suzy, state, suzy.law("r1"), Atom("shatters"))
        assert Atom("shatters") in nxt.interp
        assert "r1" in nxt.fired

    def test_no_effect_keeps_interp(self, suzy):
        state = initial_state(suzy, interp("throws_suzy throws_billy"))
        nxt = fire(suzy, state, suzy.law("r1"), NO_EFFECT)
        assert nxt.interp == state.interp
        assert "r1" in nxt.fired

    def test_already_true_outcome_still_consumes_the_law(self, suzy):
        state = initial_state(suzy, interp("throws_suzy throws_billy"))
        s1 = fire(suzy, state, suzy.law("r1"), Atom("shatters"))
        s2 = fire(suzy, s1, suzy.law("r2"), Atom("shatters"))
        assert s2.interp == s1.interp
        assert s2.fired == {"r1", "r2"}

    def test_firing_a_fired_law_rejected(self, suzy):
        state = initial_state(suzy, interp("throws_suzy throws_billy"))
        s1 = fire(suzy, state, suzy.law("r1"), Atom("shatters"))
        with pytest.raises(NotApplicableError):
            fire(suzy, s1, suzy.law("r1"), Atom("shatters"))

    def test_invalid_outcome_rejected(self, suzy):
        state = initial_state(suzy, interp("throws_suzy throws_billy"))
        with pytest.raises(InvalidOutcomeError):
            fire(suzy, state, suzy.law("r1"), Atom("throws_suzy"))

    def test_no_effect_rejected_on_total_head(self):
        theory = load_theory("exogenous c.\nb <- c.\n")
        state = initial_state(theory, interp("c"))
        with pytest.raises(InvalidOutcomeError):
            fire(theory, state, theory.law("r1"), NO_EFFECT)


    def test_a_law_the_theory_does_not_hold_is_an_unknown_label(self):
        theory = load_theory("exogenous a.\nb:1/2 <- a.\n")
        other = load_theory("z:1/2.\nc <- z.\n")
        state = initial_state(theory, interp("a"))
        # No r2 in theory; and other's r1 is not theory's r1.
        for law, outcome in ((other.law("r2"), Atom("c")), (other.law("r1"), Atom("z"))):
            with pytest.raises(UnknownLabelError):
                fire(theory, state, law, outcome)
            with pytest.raises(UnknownLabelError):
                law_status(theory, state, law)

    def test_an_equal_law_of_an_equal_theory_is_accepted(self):
        text = "exogenous a.\nb:1/2 <- a.\n"
        theory, twin = load_theory(text), load_theory(text)
        state = initial_state(theory, interp("a"))
        assert law_status(theory, state, twin.law("r1")) is LawStatus.APPLICABLE
        assert fire(theory, state, twin.law("r1"), Atom("b")).interp == interp("a b")


class TestOutcomeRule:
    """Every site that takes an outcome from its caller asks the law's
    outcome table, and each raises its own error class. Only ``fire``
    insists on an ``Atom``: the others accept a name equal to one."""

    THEORY = "exogenous s.\na:1/2; b:1/2 <- s.\nc:1/3 <- s.\n"

    @staticmethod
    def sites(theory, label, outcome):
        root = initial_state(theory, interp("s"))
        branch = Branch((root, root), (Event(label, outcome),))
        return {
            "fire": lambda: fire(theory, root, theory.law(label), outcome),
            "fix_story": lambda: fix_story(theory, branch),
            "parse_story": lambda: parse_story(f"context s.\n{label} -> {outcome}.\n", theory),
            "export_tree_dot": lambda: export_tree_dot(branch, theory=theory),
        }

    @pytest.mark.parametrize("label, outcome, rejected", [
        ("r1", Atom("c"), {
            "fire": InvalidOutcomeError, "fix_story": BranchTheoryMismatchError,
            "parse_story": OutcomeNotInHeadError, "export_tree_dot": InvalidOutcomeError,
        }),
        ("r1", NO_EFFECT, {
            "fire": InvalidOutcomeError, "fix_story": BranchTheoryMismatchError,
            "parse_story": NoEffectNotAllowedError, "export_tree_dot": InvalidOutcomeError,
        }),
        ("r1", "a", {"fire": InvalidOutcomeError}),
        ("r2", NO_EFFECT, {}),
        ("r2", Atom("c"), {}),
    ], ids=["atom-outside-the-head", "none-on-a-total-head", "plain-str", "none-with-residual", "head-atom"])
    def test_each_site_raises_its_own_error(self, label, outcome, rejected):
        theory = load_theory(self.THEORY)
        for site, call in self.sites(theory, label, outcome).items():
            if site in rejected:
                with pytest.raises(rejected[site]):
                    call()
            else:
                call()


class TestBuildTree:
    def test_default_policy_follows_file_order(self, suzy):
        tree = build_tree(suzy, interp("throws_suzy throws_billy"))
        assert tree.root.law.label == "r1"
        assert len(list(tree.nodes())) == 7

    def test_policy_override_changes_shape_not_distribution(self, suzy):
        ctx = interp("throws_suzy throws_billy")
        first = build_tree(suzy, ctx, policy=["r1", "r2"])
        second = build_tree(suzy, ctx, policy=["r2", "r1"])
        assert second.root.law.label == "r2"
        assert distribution(first) == distribution(second)

    def test_a_repeated_policy_label_keeps_its_first_rank(self):
        theory = load_theory("@a: x:1/2.\n@b: y:1/3.\n")
        tree = build_tree(theory, frozenset(), policy=["b", "a", "b"])
        assert tree == build_tree(theory, frozenset(), policy=["b", "a"])
        assert tree.root.law.label == "b"
        # A label listed only once still ranks ahead of every unlisted law.
        assert build_tree(theory, frozenset(), policy=["b", "b", "b"]) == tree

    def test_edges_sum_to_one_at_every_internal_node(self, suzy):
        tree = build_tree(suzy, interp("throws_suzy throws_billy"))
        for node in tree.nodes():
            if node.edges:
                assert sum(e.prob for e in node.edges) == 1

    def test_empty_theory_single_node(self):
        tree = build_tree(load_theory(""), frozenset())
        assert tree.root.is_leaf

    def test_every_leaf_has_only_impossible_laws(self):
        for name, ctx in (
            ("suzy_billy", "throws_suzy throws_billy"),
            ("hall_left", "a c d"),
            ("hall_right", "a c"),
            ("bogus_prevention", ""),
            ("forest_conj", "match1 match2"),
            ("forest_disj", "match1 match2"),
        ):
            theory = corpus.theory(name)
            tree = build_tree(theory, interp(ctx))
            for node in tree.nodes():
                if node.is_leaf:
                    for law in theory.laws:
                        status = law_status(theory, node.state, law)
                        assert status in (LawStatus.FIRED, LawStatus.IMPOSSIBLE)


class TestEnumerateBranches:
    def test_two_thrower_branches_to_a_shattered_bottle(self, suzy):
        target = interp("throws_suzy throws_billy shatters")
        branches = list(enumerate_branches(suzy, interp("throws_suzy throws_billy"), target))
        shapes = {
            tuple((e.label, str(e.outcome)) for e in b.events) for b in branches
        }
        assert shapes == {
            (("r1", "shatters"), ("r2", "shatters")),
            (("r1", "shatters"), ("r2", "none")),
            (("r1", "none"), ("r2", "shatters")),
            (("r2", "shatters"), ("r1", "shatters")),
            (("r2", "shatters"), ("r1", "none")),
            (("r2", "none"), ("r1", "shatters")),
        }

    def test_unreachable_target_yields_nothing(self, suzy):
        target = interp("shatters")  # throws missing: exogenous atoms persist
        assert list(enumerate_branches(suzy, interp("throws_suzy"), target)) == []

    def test_single_deterministic_law_gives_one_branch(self):
        theory = corpus.theory("forest_conj")
        branches = list(enumerate_branches(theory, interp("match1 match2")))
        assert len(branches) == 1
        assert branches[0].events[0].label == "r1"

    def test_unknown_target_atom_rejected(self, suzy):
        with pytest.raises(UnknownAtomError):
            list(enumerate_branches(suzy, frozenset(), interp("zz_unknown")))

    def test_interp_grows_and_overestimate_shrinks(self, bogus):
        for branch in enumerate_branches(bogus, frozenset()):
            for before, after in zip(branch.states, branch.states[1:]):
                assert before.interp <= after.interp
                assert after.over <= before.over
            for state in branch.states:
                assert state.interp <= state.over


def _reference_branches(theory, context, target=None):
    """The recursive depth-first walk that enumerate_branches replaced."""
    states = [initial_state(theory, context)]
    events = []

    def walk():
        state = states[-1]
        if target is not None:
            if not state.interp <= target or not target - state.interp <= state.over:
                return
        ready = applicable_laws(theory, state)
        if not ready:
            if target is None or state.interp == target:
                yield Branch(tuple(states), tuple(events))
            return
        for law in ready:
            outcomes = [alt.atom for alt in law.head]
            if law.no_effect_prob > 0:
                outcomes.append(NO_EFFECT)
            for outcome in outcomes:
                states.append(fire(theory, state, law, outcome))
                events.append(Event(law.label, outcome))
                yield from walk()
                states.pop()
                events.pop()

    return walk()


class TestBranchWalker:
    def test_same_branches_in_the_same_order_as_the_recursive_walk(self):
        from randgen import random_cases

        for theory, context in random_cases(60):
            every = list(enumerate_branches(theory, context))
            assert every == list(_reference_branches(theory, context))
            for final in {branch.final_state.interp for branch in every}:
                targeted = list(enumerate_branches(theory, context, final))
                assert targeted and targeted == list(_reference_branches(theory, context, final))

    def test_arguments_are_checked_at_the_call(self, suzy):
        with pytest.raises(UnknownAtomError):
            enumerate_branches(suzy, frozenset(), interp("zz_unknown"))
        with pytest.raises(NonExogenousInContextError):
            enumerate_branches(suzy, interp("shatters"))


@pytest.fixture
def carried(monkeypatch):
    """Every (theory, state, ready mask) the walkers carry: the root's
    from ``_root`` and every child's from ``_next_ready``."""
    seen = []
    root, step = engine._root, engine._next_ready

    def recording_root(theory, context):
        state, ready = root(theory, context)
        seen.append((theory, state, ready))
        return state, ready

    def recording(theory, state, ready, pos, bit, child):
        result = step(theory, state, ready, pos, bit, child)
        seen.append((theory, child, result))
        return result

    monkeypatch.setattr(engine, "_root", recording_root)
    monkeypatch.setattr(engine, "_next_ready", recording)
    return seen


def _assert_carried_lists_match(seen):
    for theory, state, ready in seen:
        assert [theory.laws[i].label for i in bit_positions(ready)] == [
            law.label for law in applicable_laws(theory, state)
        ]


class TestIncrementalStates:
    """fire and the walkers derive each state from its parent's; the
    from-scratch overestimate and applicable_laws are the reference."""

    def test_every_state_matches_the_reference_on_random_theories(self, carried):
        import random

        from randgen import random_cases

        shuffle = random.Random(2304)
        for theory, context in random_cases(2000):
            # Keyed by identity: equal states are still separate objects,
            # and each computes its own overestimate.
            states: dict = {}
            labels = [law.label for law in theory.laws]
            for policy in (None, labels[::-1], shuffle.sample(labels, len(labels))):
                carried.clear()
                tree = build_tree(theory, context, policy=policy)
                built = {id(node.state): node.state for node in tree.nodes()}
                # One ready mask per distinct node: the root's and each child's.
                assert len(carried) == len(built)
                _assert_carried_lists_match(carried)
                states.update(built)
            carried.clear()
            walked = {id(state): state for branch in enumerate_branches(theory, context) for state in branch.states}
            assert walked.keys() <= {id(state) for _, state, _ in carried}
            states.update(walked)
            for state in states.values():
                assert state.over_bits == overestimate(theory, state.interp_bits, state.fired_bits)
            _assert_carried_lists_match(carried)
            carried.clear()

    def test_a_blocked_law_takes_its_head_out_of_the_overestimate(self, carried):
        # Firing r1 blocks r2, the only support of b; c goes with it,
        # so ~c becomes settled and r4 applicable.
        theory = load_theory("a.\nb <- ~a.\nc <- b.\nd <- ~c.\n")
        root = initial_state(theory, frozenset())
        assert root.over == interp("a b c d")
        assert fire(theory, root, theory.law("r1"), Atom("a")).over == interp("a d")
        tree = build_tree(theory)
        assert [node.law.label for node in tree.nodes() if node.law] == ["r1", "r4"]
        assert [b.events for b in enumerate_branches(theory, frozenset())] == [
            (Event("r1", Atom("a")), Event("r4", Atom("d")))
        ]
        _assert_carried_lists_match(carried)


def _chain(depth, annotation=""):
    lines = ["exogenous a0."]
    lines += [f"a{i}{annotation} <- a{i - 1}." for i in range(1, depth + 1)]
    return load_theory("\n".join(lines) + "\n")


class TestChainScale:
    """Work per state does not grow with the theory: a d-law chain
    checks each law's status a bounded number of times, not once per
    state (about d * (2d + 1) calls)."""

    DEPTH = 200

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("law_status", "overestimate"):
            def counting(*args, _name=name, _original=getattr(engine, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(engine, name, counting)
        return counts

    def test_build_tree(self, calls):
        tree = build_tree(_chain(self.DEPTH, ":9/10"), interp("a0"))
        assert sum(1 for _ in tree.nodes()) == 2 * self.DEPTH + 1
        assert calls["law_status"] < 10 * self.DEPTH

    def test_replay_story(self, calls):
        theory = _chain(self.DEPTH)
        text = "context a0.\n" + "".join(f"r{i} -> a{i}.\n" for i in range(1, self.DEPTH + 1))
        story = parse_story(text, theory)
        calls.clear()
        branch = replay_story(theory, story)
        assert branch.final_state.over == branch.final_state.interp
        assert calls["law_status"] < 10 * self.DEPTH
        # Every step makes its law's only head atom true, so only the
        # initial state needs the full fixpoint.
        assert calls["overestimate"] == 1

    def test_a_valid_replay_checks_each_step_once(self, calls):
        # fire checks each step; law_status only words a rejected one.
        theory = _chain(self.DEPTH, ":9/10")
        text = "context a0.\n" + "".join(f"r{i} -> a{i}.\n" for i in range(1, self.DEPTH + 1))
        replay_story(theory, parse_story(text, theory))
        assert calls["law_status"] == 0
        with pytest.raises(IllegalStepError, match=r"law r2 is pending at this point in the story \(line 2\)"):
            replay_story(theory, parse_story("context a0.\nr2 -> a2.\n", theory))


class TestNoEffect:
    def test_identity_survives_pickle_and_deepcopy(self, suzy):
        branch = next(
            b for b in enumerate_branches(suzy, interp("throws_suzy"))
            if b.events[-1].outcome is NO_EFFECT
        )
        for clone in (pickle.loads(pickle.dumps(branch)), copy.deepcopy(branch)):
            assert clone == branch
            assert clone.events[-1].outcome is NO_EFFECT
        assert str(Event("r1", NO_EFFECT)) == "r1 -> none"
        assert repr(NO_EFFECT) == "none"


class TestReplayStory:
    def test_three_state_branch(self, suzy):
        story = corpus.story("suzy_billy_suzy_first.story", suzy)
        branch = replay_story(suzy, story)
        assert len(branch.states) == 3
        assert Atom("shatters") in branch.states[1].interp

    def test_bogus_stories_replay_both_orders(self, bogus):
        for name in ("bogus_prevention_coh_first.story", "bogus_prevention_anti_first.story"):
            branch = replay_story(bogus, corpus.story(name, bogus))
            assert branch.final_state.interp == interp("antidote change_of_heart")

    def test_impossible_step_rejected(self, bogus):
        story = parse_story("context.\ncoh -> change_of_heart.\npois -> poison.\n", bogus)
        with pytest.raises(IllegalStepError):
            replay_story(bogus, story)


class TestDistributionAndProb:
    def test_two_thrower_distribution(self, suzy):
        dist = distribution(build_tree(suzy, interp("throws_suzy throws_billy")))
        assert dist == {
            interp("throws_suzy throws_billy shatters"): Fraction(49, 50),
            interp("throws_suzy throws_billy"): Fraction(1, 50),
        }

    def test_empty_theory_distribution(self):
        dist = distribution(build_tree(load_theory(""), frozenset()))
        assert dist == {frozenset(): Fraction(1)}

    def test_single_probabilistic_law(self):
        theory = load_theory("a:1/3.\n")
        dist = distribution(build_tree(theory, frozenset()))
        assert dist == {interp("a"): Fraction(1, 3), frozenset(): Fraction(2, 3)}

    def test_masses_by_mask_are_the_distribution(self, suzy):
        tree = build_tree(suzy, interp("throws_suzy throws_billy"))
        by_bits = engine.distribution_bits(tree)
        shattered = suzy.numbering.atom_mask(interp("throws_suzy throws_billy shatters"))
        assert by_bits == {shattered: Fraction(49, 50), shattered & ~suzy.numbering.bit(Atom("shatters")): Fraction(1, 50)}
        assert {suzy.numbering.atom_set(bits): mass for bits, mass in by_bits.items()} == distribution(tree)

    def test_formula_probability(self, suzy):
        ctx = interp("throws_suzy throws_billy")
        assert prob_formula(suzy, ctx, parse_formula("shatters")) == Fraction(49, 50)
        assert prob_formula(suzy, ctx, TRUE) == 1

    def test_conjunctive_fire_needs_both_matches(self):
        theory = corpus.theory("forest_conj")
        burn = FormulaAtom(Atom("burn"))
        assert prob_formula(theory, interp("match1 match2"), burn) == 1
        assert prob_formula(theory, interp("match1"), burn) == 0

    def test_unknown_atom_in_formula(self, suzy):
        with pytest.raises(UnknownAtomError):
            prob_formula(suzy, frozenset(), FormulaAtom(Atom("zz_other")))

    def test_widened_vocabulary_allows_removed_atoms(self):
        theory = load_theory("exogenous c.\n")
        wide = frozenset({Atom("c"), Atom("gone")})
        assert prob_formula(theory, interp("c"), FormulaAtom(Atom("gone")), vocabulary=wide) == 0


def _throwers(k):
    text = f"exogenous {', '.join(f't{i}' for i in range(1, k + 1))}.\n"
    text += "".join(f"shatters:1/2 <- t{i}.\n" for i in range(1, k + 1))
    return text, interp(" ".join(f"t{i}" for i in range(1, k + 1)))


def _render_reference(tree):
    """The per-path text rendering, written recursively as an oracle."""
    lines = []

    def walk(node, depth):
        pad = "  " * depth
        lines.append(pad + "{" + ", ".join(sorted(a.name for a in node.state.interp)) + "}")
        for edge in node.edges:
            lines.append(f"{pad}  {node.law.label} -> {edge.outcome} ({edge.prob})")
            walk(edge.child, depth + 2)

    walk(tree.root, 0)
    return lines


def _dot_reference(tree):
    """The per-path DOT rendering, written recursively as an oracle."""
    lines = ["digraph execution_tree {", "  node [shape=box];"]
    counter = 0

    def emit(node):
        nonlocal counter
        ident = counter
        counter += 1
        label = "{" + ", ".join(sorted(a.name for a in node.state.interp)) + "}"
        lines.append(f'  n{ident} [label="{label}"];')
        for edge in node.edges:
            child = emit(edge.child)
            text = f"{node.law.label}: {edge.outcome} {edge.prob}"
            lines.append(f'  n{ident} -> n{child} [label="{text}"];')
        return ident

    emit(tree.root)
    return "\n".join(lines + ["}"]) + "\n"


def _walk_reference(tree):
    """The per-path walk, written recursively as an oracle: every
    ``(depth, parent, edge, node)`` step as ids, in pre-order, and every
    leaf's id with its path mass."""
    steps, leaves = [], []

    def walk(depth, parent, edge, node, mass):
        steps.append((depth, id(parent), id(edge), id(node)))
        if not node.edges:
            leaves.append((id(node), mass))
        for out in node.edges:
            walk(depth + 1, node, out, out.child, mass * out.prob)

    walk(0, None, None, tree.root, Fraction(1))
    return steps, leaves


class TestSharedTree:
    def test_prob_formula_matches_the_per_path_sum_under_every_policy(self):
        from randgen import all_policies, random_cases

        for theory, context in random_cases(40):
            atoms = sorted(theory.vocabulary)
            formulas = [TRUE] + [FormulaAtom(a) for a in atoms]
            formulas += [
                Conjunction((FormulaAtom(a), Negation(FormulaAtom(b))))
                for a, b in zip(atoms, atoms[1:])
            ]
            folded = [prob_formula(theory, context, f) for f in formulas]
            for policy in all_policies(theory):
                tree = build_tree(theory, context, policy=list(policy))
                leaves = list(tree.leaves_with_mass())
                by_bits: dict = {}
                for leaf, mass in leaves:
                    bits = leaf.state.interp_bits
                    by_bits[bits] = by_bits.get(bits, Fraction(0)) + mass
                assert engine.distribution_bits(tree) == by_bits
                for formula, value in zip(formulas, folded):
                    per_path = sum(
                        (mass for leaf, mass in leaves if eval_formula(formula, leaf.state.interp)),
                        Fraction(0),
                    )
                    assert isinstance(value, Fraction) and value == per_path

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_equal_states_share_one_node_but_walks_stay_per_path(self, k):
        text, ctx = _throwers(k)
        tree = build_tree(load_theory(text), ctx)
        assert len(list(tree.nodes())) == 2 ** (k + 1) - 1
        assert len({id(node) for node in tree.nodes()}) == 2 * k + 1
        assert sum(mass for _, mass in tree.leaves_with_mass()) == 1
        assert len(list(tree.leaves_with_mass())) == 2 ** k

    def test_distribution_folds_each_shared_node_once(self, monkeypatch):
        text, ctx = _throwers(20)
        tree = build_tree(load_theory(text), ctx)

        def per_path(self):
            raise AssertionError("walked the tree path by path")

        monkeypatch.setattr(engine.ExecutionTree, "leaves_with_mass", per_path)
        half = Fraction(1, 2**20)
        assert distribution(tree) == {ctx | interp("shatters"): 1 - half, ctx: half}

    def test_walks_and_renderings_match_the_recursive_references_on_random_theories(self):
        from randgen import random_cases

        for theory, context in random_cases(300):
            for policy in (None, [law.label for law in reversed(theory.laws)]):
                tree = build_tree(theory, context, policy=policy)
                steps, leaves = _walk_reference(tree)
                walked = [(depth, id(parent), id(edge), id(node)) for depth, parent, edge, node in tree.walk()]
                assert walked == steps
                assert [id(node) for node in tree.nodes()] == [step[3] for step in steps]
                assert [(id(node), mass) for node, mass in tree.leaves_with_mass()] == leaves
                assert list(format_tree(tree)) == _render_reference(tree)
                assert export_tree_dot(tree) == _dot_reference(tree)

    def test_renderings_of_a_shared_tree_are_per_path(self, tmp_path, capsys):
        text, ctx = _throwers(3)
        tree = build_tree(load_theory(text), ctx)
        assert export_tree_dot(tree) == _dot_reference(tree)
        path = tmp_path / "throwers.cpl"
        path.write_text(text, encoding="utf-8")
        assert main(["tree", str(path), "--context", "t1,t2,t3"]) == 0
        shown = capsys.readouterr().out.split("distribution over final states:")[0]
        assert shown.splitlines() == _render_reference(tree)

    def test_a_node_hashes_by_its_state_and_law_not_by_its_paths(self):
        # 2**12 paths through 25 nodes: hashing the edges would walk them all.
        text, ctx = _throwers(12)
        root = build_tree(load_theory(text), ctx).root
        assert hash(root) == hash(TreeNode(root.state, root.law, ()))
        # A chain deeper than hashing recursively could go.
        deep = build_tree(_chain(300, ":9/10"), interp("a0")).root
        assert hash(deep) == hash(build_tree(_chain(300, ":9/10"), interp("a0")).root)
        # Equal nodes still hash alike.
        text, ctx = _throwers(3)
        nodes = list(build_tree(load_theory(text), ctx).nodes())
        twins = list(build_tree(load_theory(text), ctx).nodes())
        assert nodes == twins and [hash(n) for n in nodes] == [hash(n) for n in twins]

    def test_trees_compare_without_recursion_and_each_shared_node_once(self):
        # Comparing edge by edge recursively raised RecursionError at 150 links.
        text = "exogenous a0.\n" + "".join(f"a{i}:9/10 <- a{i - 1}.\n" for i in range(1, 1001))
        deep, twin = (build_tree(load_theory(text), interp("a0")) for _ in range(2))
        assert deep == twin
        # 2**200 paths through 201 nodes: a walk per path would never end.
        state, law = deep.root.state, deep.root.law

        def diamonds(n):
            node = TreeNode(state, None, ())
            for _ in range(n):
                node = TreeNode(state, law, (node, node))
            return node

        assert diamonds(200) == diamonds(200)
        assert diamonds(200) != diamonds(199)  # the leaves differ, 200 pairs down
        assert (diamonds(1) == deep.root.edges[0]) is False  # another class

    def test_repr_pickle_and_deepcopy_keep_the_text_the_sharing_and_equality(self, monkeypatch):
        # Each went through Record along every edge, recursively, and
        # raised RecursionError at 150 to 300 links.
        deep = build_tree(_chain(1000, ":9/10"), interp("a0"))
        text, ctx = _throwers(3)
        shared = build_tree(load_theory(text), ctx)
        trees = (deep, shared, build_tree(_chain(60, ":9/10"), interp("a0")))
        for tree in trees:
            distinct = len({id(node) for node in tree.nodes()})
            for clone in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
                assert clone == tree
                assert len({id(node) for node in clone.nodes()}) == distinct
                assert len(list(clone.nodes())) == len(list(tree.nodes()))
        assert len({id(node) for node in shared.nodes()}) == 7  # 2k + 1
        assert copy.deepcopy(shared.root).state.theory is not shared.theory
        # Every state's text lists its atoms: 43 MB at 1000 links.
        # One node text per node of the full tree: the root and one per edge.
        assert repr(deep).count("TreeNode(") == 2001
        texts = [repr(tree) for tree in trees[1:]]
        # Record's own recursive text, where the recursion limit allows it.
        monkeypatch.setattr(TreeNode, "__repr__", Record.__repr__)
        assert [repr(tree) for tree in trees[1:]] == texts


@pytest.fixture
def steps(monkeypatch):
    """The key of every state the stepping kernel makes, called through
    the module binding."""
    made = []
    kernel = engine._step

    def counting(theory, state, i, bit):
        child = kernel(theory, state, i, bit)
        made.append((child.interp_bits, child.fired_bits))
        return child

    monkeypatch.setattr(engine, "_step", counting)
    return made


@pytest.fixture
def bit_calls(monkeypatch):
    """The outcome of every ``Numbering.bit`` call, made through the class."""
    seen = []
    bit = Numbering.bit

    def counting(numbering, atom):
        seen.append(atom)
        return bit(numbering, atom)

    monkeypatch.setattr(Numbering, "bit", counting)
    return seen


class TestMovesAsBits:
    """The kernel takes an outcome's atom bit: each walker turns a law's
    table rows into bits once, and ``fire`` turns its one outcome into
    a bit once, after its checks."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_build_tree_takes_the_bits_of_each_fired_laws_rows_once(self, bit_calls, steps, k):
        text, ctx = _throwers(k)
        theory = load_theory(text)
        bit_calls.clear()
        build_tree(theory, ctx)
        # One call per row of each of the k laws, though 2k states are
        # stepped into; the kernel itself derives nothing.
        assert len(steps) == 2 * k
        assert Counter(bit_calls) == {Atom("shatters"): k, NO_EFFECT: k}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_the_branch_walk_takes_the_bits_of_every_laws_rows_once(self, bit_calls, steps, k):
        text, ctx = _throwers(k)
        theory = load_theory(text)
        bit_calls.clear()
        branches = list(enumerate_branches(theory, ctx))
        assert len(steps) == 2 * k * (2**k - 1)  # one step per move of a distinct state
        assert Counter(bit_calls) == {Atom("shatters"): k, NO_EFFECT: k}
        bit_calls.clear()
        assert list(enumerate_branches(theory, ctx, ctx | interp("shatters"))) == [
            branch for branch in branches if Atom("shatters") in branch.final_state.interp
        ]
        assert len(bit_calls) == 2 * k

    def test_fire_takes_the_bit_once_after_its_checks(self, bit_calls, steps):
        text, ctx = _throwers(2)
        theory = load_theory(text)
        root = initial_state(theory, ctx)
        law = theory.laws[0]
        for outcome in (Atom("shatters"), NO_EFFECT):
            bit_calls.clear()
            child = fire(theory, root, law, outcome)
            assert bit_calls == [outcome]
            assert steps[-1] == (child.interp_bits, child.fired_bits)
        bit_calls.clear()
        with pytest.raises(InvalidOutcomeError):
            fire(theory, root, law, Atom("t1"))
        with pytest.raises(NotApplicableError):
            fire(theory, child, law, Atom("shatters"))
        assert bit_calls == []


class TestOneStepPerState:
    """build_tree reserves each child's key before stepping, so every
    distinct state is stepped into once, and enumerate_branches steps
    each move out of a distinct state once; the walkers never need the
    checked fire."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_k_thrown_throwers_take_2k_steps_for_2k_plus_1_nodes(self, steps, k):
        text, ctx = _throwers(k)
        tree = build_tree(load_theory(text), ctx)
        assert len({id(node) for node in tree.nodes()}) == 2 * k + 1
        assert len(steps) == 2 * k

    def test_steps_are_the_distinct_states_on_random_theories(self, steps):
        from randgen import random_cases

        for theory, context in random_cases(300):
            for policy in (None, [law.label for law in reversed(theory.laws)]):
                steps.clear()
                tree = build_tree(theory, context, policy=policy)
                nodes = list(tree.nodes())
                keys = {(node.state.interp_bits, node.state.fired_bits) for node in nodes}
                assert len({id(node) for node in nodes}) == len(keys)
                assert len(steps) == len(keys) - 1
                root = tree.root.state
                assert set(steps) == keys - {(root.interp_bits, root.fired_bits)}

    def test_two_outcomes_reaching_one_state_share_the_child(self, steps):
        text, ctx = _throwers(2)
        tree = build_tree(load_theory(text), ctx)
        shattered = tree.root.edges[0].child
        assert shattered.state.interp == ctx | interp("shatters")
        hit, miss = shattered.edges
        assert (hit.outcome, miss.outcome) == (Atom("shatters"), NO_EFFECT)
        assert hit.child is miss.child
        assert len(steps) == 4

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_the_branch_walk_steps_each_move_of_a_distinct_state_once(self, steps, k):
        import frozenset_engine as reference

        text, ctx = _throwers(k)
        theory = load_theory(text)
        want = list(reference.enumerate_branches(theory, ctx))
        # A step per edge of the full tree, one per distinct event prefix.
        path_steps = len({b.events[:i] for b in want for i in range(1, len(b) + 1)})
        target = ctx | interp("shatters")
        for goal in (None, target):
            steps.clear()
            _assert_same_branches(enumerate_branches(theory, ctx, goal), [
                b for b in want if goal is None or b.final_state.interp == goal
            ])
            # 2^k - 1 fired sets, each with or without shatters, and the
            # root; a state with j throwers fired has 2(k - j) moves.
            assert len(steps) == 2 * k * (2 ** k - 1) < path_steps
        # The first branch costs one state's moves per level.
        steps.clear()
        next(enumerate_branches(theory, ctx, target))
        assert len(steps) == k * (k + 1)

    def test_the_branch_walk_steps_the_distinct_moves_on_random_theories(self, steps):
        from randgen import random_cases

        for theory, context in random_cases(300):
            steps.clear()
            branches = list(enumerate_branches(theory, context))
            moves = {
                (b.states[i].interp_bits, b.states[i].fired_bits, b.events[i])
                for b in branches for i in range(len(b))
            }
            assert len(steps) == len(moves)

    def test_the_walkers_step_without_the_checked_fire(self, monkeypatch, suzy):
        def checked(*args):
            raise AssertionError("a walker called fire")

        monkeypatch.setattr(engine, "fire", checked)
        context = interp("throws_suzy throws_billy")
        assert len(list(build_tree(suzy, context).nodes())) == 7
        assert len(list(enumerate_branches(suzy, context))) == 8
        assert prob_formula(suzy, context, FormulaAtom(Atom("shatters"))) == Fraction(49, 50)


def _constructed(theory, ref_tree):
    """The reference tree made again with the records' own constructors,
    over the mask engine's states: what a builder calling ``TreeNode``
    gives."""
    numbering = theory.numbering
    made: dict = {}

    def make(ref):
        node = made.get(id(ref))
        if node is None:
            state = engine.State(theory, numbering.atom_mask(ref.state.interp), numbering.law_mask(ref.state.fired))
            children = tuple(make(child) for child in ref.children)
            node = made[id(ref)] = TreeNode(state, ref.law, children)
        return node

    return engine.ExecutionTree(theory, make(ref_tree.root))


class TestOnePassBuilder:
    """build_tree makes each node empty when an edge first reaches its
    key and fills it when it expands that key's level, in one pass."""

    def test_trees_match_the_frozenset_engine_under_three_policies(self):
        import random

        import frozenset_engine as reference
        from randgen import random_cases

        shuffle = random.Random(2204)
        for theory, context in random_cases(2000):
            labels = [law.label for law in theory.laws]
            for policy in (None, labels[::-1], shuffle.sample(labels, len(labels))):
                tree = build_tree(theory, context, policy=policy)
                ref_tree = reference.build_tree(theory, context, policy=policy)
                assert _tree_rows(tree) == _tree_rows(ref_tree)
                distinct = {id(node): node for node in tree.nodes()}.values()
                # No placeholder is left: every node and edge has all its fields.
                for node in distinct:
                    assert all(hasattr(node, name) for name in TreeNode._fields)
                    assert all(hasattr(edge, name) for edge in node.edges for name in TreeEdge._fields)
                keys = {(node.state.interp_bits, node.state.fired_bits) for node in distinct}
                assert len(distinct) == len(keys)
                expected = _constructed(theory, ref_tree)
                clone = pickle.loads(pickle.dumps(tree))
                assert tree == expected and clone == expected
                assert repr(tree) == repr(clone) == repr(expected)

    def test_a_law_that_never_fires_keeps_its_outcome_table_unread(self):
        theory = _chain(2000, ":9/10")
        assert not any("outcomes" in law.__dict__ for law in theory.laws)
        # Without a0 no law is applicable: the root is the one leaf.
        tree = build_tree(theory)
        assert tree.root.is_leaf
        assert not any("outcomes" in law.__dict__ for law in theory.laws)
        # A law's table is read when it first fires: here the first law only.
        partial = load_theory("exogenous a0, b0.\na1:9/10 <- a0.\nb1:9/10 <- b0.\n")
        build_tree(partial, interp("a0"))
        assert ["outcomes" in law.__dict__ for law in partial.laws] == [True, False]



def _tree_edges():
    """How many ``TreeEdge`` objects the collector tracks now."""
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is TreeEdge)


class TestChildrenAndTables:
    """A node stores one child per row of its law's outcome table; its
    ``edges`` are a view of the table, built on first read."""

    def test_build_tree_distribution_and_prob_formula_make_no_tree_edge(self, monkeypatch):
        text, ctx = _throwers(4)
        theory = load_theory(text)
        before = _tree_edges()
        tree = build_tree(theory, ctx)
        assert distribution(tree)[ctx | interp("shatters")] == Fraction(15, 16)
        assert _tree_edges() == before
        # Counted while prob_formula's own tree is still alive.
        during = []
        fold = engine._fold

        def counting(*args):
            during.append(_tree_edges())
            return fold(*args)

        monkeypatch.setattr(engine, "_fold", counting)
        assert prob_formula(theory, ctx, FormulaAtom(Atom("shatters"))) == Fraction(15, 16)
        assert during == [before]
        # Reading the views makes one edge per child of each distinct node.
        distinct = {id(node): node for node in tree.nodes()}.values()
        assert _tree_edges() == before + sum(len(node.children) for node in distinct)

    def test_edges_are_the_table_rows_with_the_children_on_random_theories(self):
        from randgen import random_cases

        for theory, context in random_cases(300):
            for node in build_tree(theory, context).nodes():
                pairs = node.law.outcomes.pairs if node.law is not None else ()
                assert [(edge.outcome, edge.prob) for edge in node.edges] == list(pairs)
                assert len(node.edges) == len(node.children)
                assert all(edge.child is child for edge, child in zip(node.edges, node.children))

    def test_the_view_is_read_once_and_not_pickled_or_copied(self):
        text, ctx = _throwers(2)
        tree = build_tree(load_theory(text), ctx)
        root = tree.root
        assert "edges" not in root.__dict__
        first = root.edges
        assert root.edges is first and root.__dict__["edges"] is first
        data = pickle.dumps(tree)
        assert b"TreeEdge" not in data
        for clone in (pickle.loads(data), copy.deepcopy(tree)):
            assert clone == tree and "edges" not in clone.root.__dict__
            assert [(e.outcome, e.prob) for e in clone.root.edges] == [(e.outcome, e.prob) for e in first]

    def test_children_that_do_not_match_the_table_raise_on_read(self):
        text, ctx = _throwers(1)
        tree = build_tree(load_theory(text), ctx)
        root, leaf = tree.root, tree.root.children[0]
        assert len(root.law.outcomes.pairs) == 2
        for node in (TreeNode(root.state, root.law, (leaf,)), TreeNode(root.state, root.law, (leaf,) * 3),
                     TreeNode(root.state, None, (leaf,))):
            with pytest.raises(ValueError):
                node.edges
        assert TreeNode(root.state, root.law, root.children).edges == root.edges


def _throwers_and_coins(thrown, idle, coins, seed):
    """``thrown + idle`` throwers ``shatters:1/2 <- tI.``, the first
    ``thrown`` in the context, and ``coins`` coins ``cI:1/2.``, in a
    seeded law order: the shape of the benchmark's prob-wide theories."""
    import random

    throwers = [f"t{i}" for i in range(thrown + idle)]
    laws = [f"shatters:1/2 <- {t}.\n" for t in throwers] + [f"c{i}:1/2.\n" for i in range(coins)]
    random.Random(seed).shuffle(laws)
    return load_theory(f"exogenous {', '.join(throwers)}.\n" + "".join(laws)), interp(" ".join(throwers[:thrown]))


class TestBenchWidths:
    """The mask walkers at the benchmark's widths: ``randgen`` draws at
    most 5 laws over 6 atoms, too few to show a wrong shift or a key
    collision between the fired and the interp bits of a level key."""

    @pytest.mark.parametrize("thrown, idle, coins", [(3, 0, 6), (4, 1, 6), (5, 2, 7), (4, 2, 8)])
    def test_thrower_and_coin_trees_match_the_frozenset_engine(self, thrown, idle, coins):
        import frozenset_engine as reference

        theory, context = _throwers_and_coins(thrown, idle, coins, seed=thrown * 100 + idle * 10 + coins)
        assert 9 <= len(theory.laws) <= 14
        for policy in (None, [law.label for law in reversed(theory.laws)]):
            tree = build_tree(theory, context, policy=policy)
            assert _tree_rows(tree) == _tree_rows(reference.build_tree(theory, context, policy=policy))
            distinct = {id(node): node for node in tree.nodes()}.values()
            keys = {(node.state.interp_bits, node.state.fired_bits) for node in distinct}
            assert len(distinct) == len(keys)
        shatters = FormulaAtom(Atom("shatters"))
        assert prob_formula(theory, context, shatters) == 1 - Fraction(1, 2**thrown)
        coin = FormulaAtom(Atom(f"c{coins - 1}"))
        assert prob_formula(theory, context, Conjunction((shatters, coin))) == (1 - Fraction(1, 2**thrown)) / 2

    def test_every_rung_of_a_negation_ladder_is_exact(self):
        depth = 12
        rungs = "".join(f"b{k}:1/2 <- ~b{k - 1}.\n" for k in range(1, depth + 1))
        theory = load_theory(f"b0:1/2.\n{rungs}")
        want = Fraction(1, 2)
        for k in range(depth + 1):
            assert prob_formula(theory, frozenset(), FormulaAtom(Atom(f"b{k}"))) == want
            want = (1 - want) / 2

    def test_the_last_link_of_a_2000_law_chain_is_exact(self):
        theory = _chain(2000, ":9/10")
        value = prob_formula(theory, interp("a0"), FormulaAtom(Atom("a2000")))
        assert type(value) is Fraction and value == Fraction(9, 10) ** 2000


def _random_formula(rng, atoms, depth=3):
    """A formula over ``atoms`` of every shape: an atom, ``!``, ``&`` and
    ``|``, nested up to ``depth`` deep."""
    shape = rng.choice(("atom", "not", "and", "or")) if depth else "atom"
    if shape == "atom":
        return FormulaAtom(rng.choice(atoms))
    if shape == "not":
        return Negation(_random_formula(rng, atoms, depth - 1))
    parts = tuple(_random_formula(rng, atoms, depth - 1) for _ in range(rng.randint(2, 3)))
    return (Conjunction if shape == "and" else Disjunction)(parts)


class TestProjectedFold:
    """``prob_formula`` folds its tree with each level keyed by the fired
    laws and the atoms that the formula or a law body reads; the full
    tree, walked path by path, is the oracle."""

    #: In no theory's vocabulary: queried through a widened vocabulary.
    OUTSIDE = Atom("outside")

    def _assert_per_path(self, monkeypatch, theory, context, rng):
        atoms = sorted(theory.vocabulary) + [self.OUTSIDE]
        heads = {alt.atom for law in theory.laws for alt in law.head}
        assert set(atoms) - heads  # atoms outside any head
        formulas = [FormulaAtom(atom) for atom in atoms] + [Negation(FormulaAtom(rng.choice(atoms)))]
        formulas += [_random_formula(rng, atoms) for _ in range(6)]
        vocabulary = theory.vocabulary | {self.OUTSIDE}
        labels = [law.label for law in theory.laws]
        for policy in (None, labels[::-1]):
            tree = build_tree(theory, context, policy=policy)
            # prob_formula folds the tree of the module's build_tree binding.
            monkeypatch.setattr(engine, "build_tree", lambda *args: tree)
            by_interp: dict = {}
            for leaf, mass in tree.leaves_with_mass():
                by_interp[leaf.state.interp] = by_interp.get(leaf.state.interp, 0) + mass
            for formula in formulas:
                want = sum((mass for final, mass in by_interp.items() if eval_formula(formula, final)), Fraction(0))
                got = prob_formula(theory, context, formula, vocabulary=vocabulary)
                assert type(got) is Fraction and got == want, (formula, policy)

    def test_prob_formula_is_the_per_path_sum_on_random_theories(self, monkeypatch):
        import random

        from randgen import random_cases

        rng = random.Random(97)
        for theory, context in random_cases(300):
            self._assert_per_path(monkeypatch, theory, context, rng)

    def test_prob_formula_is_the_per_path_sum_on_structured_theories(self, monkeypatch):
        """16 ``structured_theory`` draws whose trees have at most 5,000
        nodes path by path under both orders (larger draws are redrawn)."""
        import random

        from randgen import structured_theory

        rng = random.Random(4093)
        checked = 0
        while checked < 16:
            theory, context = structured_theory(rng)
            labels = [law.label for law in theory.laws]
            if max(_path_nodes(build_tree(theory, context, policy=policy)) for policy in (None, labels[::-1])) > 5_000:
                continue
            checked += 1
            self._assert_per_path(monkeypatch, theory, context, rng)

    def test_idle_coins_are_merged_and_not_expanded(self, monkeypatch):
        """4 thrown throwers, then coins c0 … c7, in file order. The fold
        keeps shatters, c1 and the throwers: levels 0–4 hold 1 + 2·4 keys,
        c0's level 2, the levels of c1 … c6 4 each, and c7's level only
        leaves, so it expands 35 of the tree's 517 distinct internal nodes."""
        throwers = [f"t{i}" for i in range(1, 5)]
        text = f"exogenous {', '.join(throwers)}.\n" + "".join(f"shatters:1/2 <- {t}.\n" for t in throwers)
        text += "".join(f"c{i}:1/2.\n" for i in range(8))
        theory, context = load_theory(text), interp(" ".join(throwers))
        trees, expanded = [], []
        build = engine.build_tree

        def building(*args):
            trees.append(build(*args))
            return trees[-1]

        def counted(shares):
            def sharing(node, mass):
                expanded.append(id(node))
                return shares(node, mass)
            return sharing

        monkeypatch.setattr(engine, "build_tree", building)
        monkeypatch.setattr(engine, "_weight_shares", counted(engine._weight_shares))
        monkeypatch.setattr(engine, "_probability_shares", counted(engine._probability_shares))
        assert prob_formula(theory, context, parse_formula("shatters & c1")) == Fraction(15, 32)
        (tree,) = trees
        assert len(expanded) == len(set(expanded)) == 35
        assert _path_nodes(tree) == 2 ** 13 - 1 == 8191
        distinct = {id(node): node for node in tree.nodes()}
        assert len(distinct) == 1029
        # distribution_bits keeps every atom: it expands each distinct internal node once.
        expanded.clear()
        folded = engine.distribution_bits(tree)
        assert sorted(expanded) == sorted(key for key, node in distinct.items() if node.children)
        assert len(expanded) == 517
        by_bits: dict = {}
        for leaf, mass in tree.leaves_with_mass():
            by_bits[leaf.state.interp_bits] = by_bits.get(leaf.state.interp_bits, 0) + mass
        assert folded == by_bits


def _sorted_text(members):
    """A frozenset's text with its members sorted by their ``repr``."""
    return f"frozenset({{{', '.join(sorted(map(repr, members)))}}})" if members else "frozenset()"


def _state_views(state):
    return state.interp, state.fired, state.over


def _tree_rows(tree):
    """Per-path pre-order rows: state views, fired law and edges of each node."""
    rows = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        label = node.law.label if node.law else None
        rows.append((_state_views(node.state), label, [(e.outcome, e.prob) for e in node.edges]))
        stack.extend(reversed([edge.child for edge in node.edges]))
    return rows


def _assert_same_branches(got, want):
    """Same branches in the same order, with equal state views; each
    distinct pair of state objects is compared once."""
    got, want, matched = list(got), list(want), {}
    assert [branch.events for branch in got] == [branch.events for branch in want]
    for mine, theirs in zip(got, want):
        for state, ref in zip(mine.states, theirs.states):
            if matched.get(id(state)) is not ref:
                assert _state_views(state) == _state_views(ref)
                matched[id(state)] = ref


def _formulas(theory):
    atoms = sorted(theory.vocabulary)
    formulas = [TRUE] + [FormulaAtom(a) for a in atoms] + [Negation(FormulaAtom(a)) for a in atoms]
    formulas += [Conjunction((FormulaAtom(a), Negation(FormulaAtom(b)))) for a, b in zip(atoms, atoms[1:])]
    return formulas


def _path_nodes(tree):
    """How many nodes the full tree has, path by path, counted over the DAG."""
    below: dict = {}  # id(node) -> nodes of the full subtree under it
    stack = [tree.root]
    while stack:
        node = stack[-1]
        todo = [child for child in node.children if id(child) not in below]
        if todo:
            stack += todo
            continue
        stack.pop()
        below[id(node)] = 1 + sum([below[id(child)] for child in node.children])
    return below[id(tree.root)]


class TestMaskStates:
    """The mask engine against the frozenset engine it replaced, which
    ``tests/frozenset_engine.py`` keeps as the reference."""

    def test_structured_theories_of_real_width_match_the_frozenset_engine(self):
        """Trees under file order and reversed order, the distribution and
        every atom's probability, on 10- to 40-law ``structured_theory``
        draws. ``_tree_rows`` and the reference's distribution walk every
        path, so a draw whose reference tree, in either order, has more
        than 5,000 nodes path by path is redrawn: 1 of the first 17
        draws of this seed."""
        import random

        import frozenset_engine as reference
        from randgen import structured_theory

        rng = random.Random(2511)
        checked = redrawn = 0
        widths = set()
        while checked < 16:
            theory, context = structured_theory(rng)
            labels = [law.label for law in theory.laws]
            ref_trees = {order: reference.build_tree(theory, context, policy=policy)
                         for order, policy in (("file", None), ("reversed", labels[::-1]))}
            if max(map(_path_nodes, ref_trees.values())) > 5_000:
                redrawn += 1
                continue
            checked += 1
            widths.add(len(labels))
            dist = reference.distribution(ref_trees["file"])
            assert sum(dist.values()) == 1
            for order, ref_tree in ref_trees.items():
                tree = build_tree(theory, context, policy=None if order == "file" else labels[::-1])
                assert _tree_rows(tree) == _tree_rows(ref_tree), order
                assert distribution(tree) == dist, order
            formulas = [FormulaAtom(atom) for atom in sorted(theory.vocabulary)]
            for formula, want in zip(formulas, reference.fold_formulas(ref_trees["file"], formulas)):
                assert prob_formula(theory, context, formula) == want, formula
        assert redrawn == 1
        assert min(widths) >= 10 and max(widths) <= 40 and max(widths) - min(widths) >= 20

    def test_views_trees_branches_and_probabilities_match_the_frozenset_engine(self):
        import frozenset_engine as reference
        from randgen import all_policies, random_cases

        for theory, context in random_cases(2000):
            ref_tree = reference.build_tree(theory, context)
            assert _tree_rows(build_tree(theory, context)) == _tree_rows(ref_tree)
            want = list(reference.enumerate_branches(theory, context))
            _assert_same_branches(enumerate_branches(theory, context), want)
            # With a target, the walk yields the branches that end there,
            # in the same order; their states were compared just above.
            for final in {branch.final_state.interp for branch in want}:
                assert [branch.events for branch in enumerate_branches(theory, context, final)] == [
                    branch.events for branch in want if branch.final_state.interp == final
                ]
            # One fold of the reference tree gives every formula's value.
            formulas = _formulas(theory)
            for formula, want in zip(formulas, reference.fold_formulas(ref_tree, formulas)):
                value = prob_formula(theory, context, formula)
                assert isinstance(value, Fraction)
                assert value == want
            # The reference's distribution is the same under every policy
            # (criterion 2), so one reference tree serves all of them.
            dist = reference.distribution(ref_tree)
            for policy in all_policies(theory):
                assert distribution(build_tree(theory, context, policy=list(policy))) == dist

    def test_equality_hash_repr_pickle_and_deepcopy_go_by_the_views(self, bogus):
        states = {node.state for node in build_tree(bogus).nodes()}
        for branch in enumerate_branches(bogus, frozenset()):
            states.update(branch.states)
        for state in states:
            interp, fired, over = _state_views(state)
            # Equal states have equal interp and fired views; over is not hashed.
            assert hash(state) == hash((interp, fired))
            assert repr(state) == (f"State(interp={_sorted_text(interp)}, fired={_sorted_text(fired)}, "
                                   f"over={_sorted_text(over)})")
            for clone in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
                assert clone == state and _state_views(clone) == (interp, fired, over)
        assert len(states) == len({_state_views(state) for state in states})

    def test_a_state_is_unequal_to_a_value_of_another_type(self, bogus):
        state = initial_state(bogus, frozenset())
        assert state.__eq__(_state_views(state)) is NotImplemented
        assert state != _state_views(state) and state != None  # noqa: E711

    def test_the_numbering_does_not_follow_the_exogenous_set_order(self):
        # An unpickled or copied theory rebuilds its exogenous frozenset,
        # which may iterate in another order; its states' masks must
        # still mean the same atoms.
        atoms = [Atom(f"e{i}") for i in range(64)]
        numbered = [Theory((), frozenset(order)).numbering.atoms for order in (atoms, atoms[::-1])]
        assert numbered[0] == numbered[1] == sorted(atoms)

    def test_a_theory_and_branch_pickled_under_one_hash_seed_load_under_another(self, tmp_path):
        # str hashes are randomized per process, so the unpickled
        # exogenous set iterates in another order; the numbering, the
        # states' views and the probabilities must not follow it.
        dump = tmp_path / "theory-and-branch.pickle"
        report = (
            "import json\n"
            "from cplogic.engine import prob_formula\n"
            "from cplogic.textio import parse_formula\n"
            "def report(theory, branch):\n"
            "    views = [[sorted(s.interp), sorted(s.fired), sorted(s.over)] for s in branch.states]\n"
            "    prob = prob_formula(theory, branch.states[0].interp, parse_formula('hit | other'))\n"
            "    print(json.dumps({'atoms': theory.numbering.atoms, 'views': views, 'prob': str(prob),\n"
            "                      'set_order': list(theory.exogenous)}))\n"
        )
        write = report + (
            "import pickle\n"
            "from cplogic.engine import replay_story\n"
            "from cplogic.textio import load_theory, parse_story\n"
            "theory = load_theory('exogenous e0, e1, e2, e3, e4, e5, e6, e7.\\n'\n"
            "                     '@h: hit:1/2 <- e1, e6.\\n@m: miss <- e3, ~hit.\\n'\n"
            "                     '@o: out:1/3; other:1/3 <- e5.\\n')\n"
            "story = parse_story('context e1, e3, e5, e6.\\nh -> none.\\nm -> miss.\\no -> other.\\n', theory)\n"
            "branch = replay_story(theory, story)\n"
            f"open({str(dump)!r}, 'wb').write(pickle.dumps((theory, branch)))\n"
            "report(theory, branch)\n"
        )
        read = report + (
            "import pickle\n"
            f"report(*pickle.loads(open({str(dump)!r}, 'rb').read()))\n"
        )
        src = str(Path(engine.__file__).resolve().parents[1])
        runs = []
        for seed, code in (("1", write), ("2", read)):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=60, check=True).stdout
            runs.append(json.loads(out))
        written, loaded = runs
        assert written["set_order"] != loaded["set_order"]
        for key in ("atoms", "views", "prob"):
            assert loaded[key] == written[key]
        assert written["atoms"][:8] == [f"e{i}" for i in range(8)]
        assert written["prob"] == "2/3"

    def test_states_of_equally_numbered_theories_compare_by_their_masks(self, monkeypatch):
        # Separately loaded, so the numberings are equal but distinct;
        # comparing two 1000-link trees built every state's views and
        # overestimate, quadratic in depth.
        text = "exogenous a0.\n" + "".join(f"a{i}:1/2 <- a{i - 1}.\n" for i in range(1, 9))
        states, twins = ([node.state for node in build_tree(load_theory(text), interp("a0")).nodes()]
                         for _ in range(2))
        assert states[0].theory.numbering is not twins[0].theory.numbering

        def unread(*args):
            raise AssertionError("read a view or an overestimate")

        with monkeypatch.context() as patched:
            for name in ("interp", "fired", "over"):
                patched.setattr(engine.State, name, property(unread))
            patched.setattr(engine, "overestimate", unread)
            assert states == twins
            assert states[1] != twins[2] and states != twins[::-1]
        for state in states:
            for twin in twins:
                assert (state == twin) == (_state_views(state) == _state_views(twin))
        # A stored overestimate is compared, not assumed.
        root = states[0]
        odd = engine.State(root.theory, root.interp_bits, root.fired_bits, root.interp_bits)
        assert odd != twins[0] and odd.over != twins[0].over

    def test_states_of_differently_numbered_theories_compare_by_their_views(self):
        laws = ("@a: x <- e.\n", "@b: y <- e.\n")
        mine, theirs = (load_theory("exogenous e.\n" + "".join(order)) for order in (laws, laws[::-1]))
        assert mine.numbering.atoms != theirs.numbering.atoms
        hit = [fire(t, initial_state(t, interp("e")), t.law("a"), Atom("x")) for t in (mine, theirs)]
        assert hit[0] == hit[1] and hit[0].interp_bits != hit[1].interp_bits
        assert hit[0] != fire(theirs, initial_state(theirs, interp("e")), theirs.law("b"), Atom("y"))
        # Two unlabeled laws: a law mask does not tell them apart, but the views do.
        same = Theory((CPLaw((HeadAlternative(Atom("x"), Fraction(1)),)),) * 2)
        assert same.numbering.key is None
        assert engine.State(same, 0, 1) == engine.State(same, 0, 2)

    def test_states_cross_equal_theory_objects_through_their_views(self, suzy):
        twin = load_theory(corpus.read_text("suzy_billy.cpl"))
        assert twin is not suzy and twin.numbering is not suzy.numbering
        ctx = interp("throws_suzy throws_billy")
        root = initial_state(suzy, ctx)
        assert initial_state(twin, ctx) == root
        step = fire(twin, root, twin.law("r2"), Atom("shatters"))
        assert step == fire(suzy, root, suzy.law("r2"), Atom("shatters"))
        assert law_status(twin, step, twin.law("r1")) is LawStatus.APPLICABLE

    def test_threads_reading_views_of_fresh_states_get_equal_values(self):
        # Shared states whose views and overestimates nobody has read yet.
        states = [node.state for node in build_tree(_chain(60, ":1/2"), interp("a0")).nodes()]
        workers = 6
        barrier = threading.Barrier(workers)
        got: list = [None] * workers

        def read(slot):
            barrier.wait(timeout=10)
            got[slot] = [_state_views(state) for state in states]

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
        assert all(values == got[0] for values in got)
        assert got[0][0] == (interp("a0"), frozenset(), interp(" ".join(f"a{i}" for i in range(61))))


class TestOnDemandOverestimate:
    """A state runs the full fixpoint of its own masks only when
    something reads its overestimate, and only once."""

    DEPTH = 200

    @pytest.fixture
    def fixpoints(self, monkeypatch):
        counts = Counter()
        original = engine.overestimate

        def counting(*args):
            counts["overestimate"] += 1
            return original(*args)

        monkeypatch.setattr(engine, "overestimate", counting)
        return counts

    def test_a_long_chain_runs_no_fixpoint_after_the_root(self, fixpoints):
        theory = _chain(self.DEPTH, ":9/10")
        tree = build_tree(theory, interp("a0"))
        assert sum(1 for _ in tree.nodes()) == 2 * self.DEPTH + 1
        assert fixpoints["overestimate"] <= 1
        fixpoints.clear()
        goal = FormulaAtom(Atom(f"a{self.DEPTH}"))
        assert prob_formula(theory, interp("a0"), goal) == Fraction(9, 10) ** self.DEPTH
        assert fixpoints["overestimate"] <= 1

    def test_a_child_computes_its_overestimate_once_when_read(self, fixpoints):
        theory = load_theory("exogenous c.\na:1/2 <- c.\nb <- a.\n")
        root = initial_state(theory, interp("c"))
        assert root.over == interp("a b c") and fixpoints["overestimate"] == 1
        caused = fire(theory, root, theory.law("r1"), Atom("a"))
        lost = fire(theory, root, theory.law("r1"), NO_EFFECT)
        assert fixpoints["overestimate"] == 1  # stepping reads none
        for _ in range(2):
            for child in (caused, lost):
                assert child.over_bits == overestimate(theory, child.interp_bits, child.fired_bits)
        assert caused.over == interp("a b c")
        assert lost.over == interp("c") and lost.over_bits == lost.interp_bits
        assert fixpoints["overestimate"] == 3  # once per state object

    def test_pickling_and_copying_run_no_fixpoint(self, fixpoints):
        theory = _chain(1000, ":9/10")
        tree = build_tree(theory, interp("a0"))
        clones = [pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)]
        assert fixpoints["overestimate"] == 0
        for clone in clones:
            assert clone == tree
            states = [node.state for node in clone.nodes()]
            assert len(states) == 2001
            for state in states:
                assert state.over_bits == overestimate(state.theory, state.interp_bits, state.fired_bits)

    def test_hashing_runs_no_fixpoint(self, fixpoints):
        # Hashing by the overestimate's view too would run one fixpoint
        # per state, quadratic in depth.
        tree = build_tree(_chain(1000, ":9/10"), interp("a0"))
        twin = build_tree(_chain(1000, ":9/10"), interp("a0"))
        hashes = [hash(node) for node in tree.nodes()]
        assert hashes == [hash(node) for node in twin.nodes()]
        assert len(set(hashes)) == 2001
        assert fixpoints["overestimate"] == 0
        # Storing an overestimate leaves the hash as it was.
        for node, other in zip(tree.nodes(), twin.nodes()):
            node.state.over_bits
            assert hash(node.state) == hash(other.state) and node.state == other.state

    def test_a_stored_overestimate_survives_pickling_and_copying(self, fixpoints):
        # A negation ladder: every state the builder makes reads its own.
        rungs = "".join(f"b{k}:1/2 <- ~b{k - 1}.\n" for k in range(1, 7))
        theory = load_theory(f"b0:1/2.\n{rungs}")
        tree = build_tree(theory)
        states = [node.state for node in tree.nodes()]
        stored = [state.over_bits for state in states]
        unread = fire(theory, tree.root.state, theory.law("r1"), Atom("b0"))
        fixpoints.clear()
        for clone in (pickle.loads(pickle.dumps((tree, unread))), copy.deepcopy((tree, unread))):
            assert [node.state.over_bits for node in clone[0].nodes()] == stored
            assert clone[0] == tree
            assert fixpoints["overestimate"] == 0
            assert clone[1].over == interp("b0 b2 b3 b4 b5 b6")
            assert fixpoints["overestimate"] == 1  # the unread one, on first read
            fixpoints.clear()
        assert unread.over == interp("b0 b2 b3 b4 b5 b6")

    def test_build_tree_memory_on_a_deterministic_chain(self):
        theory = _chain(1000)
        theory.numbering  # built before tracing
        tracemalloc.start()
        try:
            tree = build_tree(theory, interp("a0"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.root.law.label == "r1"
        assert peak < 8 * 2**20


def _fractions_made(call):
    """``call()``'s result and the number of Fraction objects it made.

    Counted with a profile hook on the constructors in ``fractions``
    (``__new__``, and ``_from_coprime_ints`` where the arithmetic uses
    it), so every path counts: explicit calls and arithmetic alike.
    """
    makers = {Fraction.__new__.__code__}
    from_coprime = getattr(Fraction, "_from_coprime_ints", None)
    if from_coprime is not None:
        makers.add(from_coprime.__func__.__code__)
    made = 0

    def profile(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code in makers:
            made += 1

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, made


class TestIntegerFold:
    """``prob_formula`` sums integer masses over the product of the laws'
    scales; ``distribution_bits`` keeps the exact Fraction fold. Both
    must give the same value."""

    THEORIES = {
        "numerators-sharing-scales": "a:2/3.\nb:1/2 <- a.\nc:1/2 <- ~a.\n",
        "two-alternatives-beside-sixths": "a:1/4; b:3/4.\nc:1/6.\nd:5/6 <- a, c.\ne <- b, ~c.\n",
        "symbolic": "exogenous s.\n@x: a:*; b:1/4 <- s.\nc:* <- a.\nd:1/3 <- ~c.\n",
        "huge-denominator": "a:0." + "1" * 4400 + ".\nb:1/3 <- a.\nc:2/7; d:0.5 <- ~b.\n",
        "deterministic": "exogenous s.\na <- s.\nb <- a.\nc <- ~b.\n",
        "empty": "",
    }

    @pytest.mark.parametrize("name", THEORIES)
    def test_prob_formula_equals_the_summed_distribution(self, name):
        theory = load_theory(self.THEORIES[name])
        contexts = [frozenset(), theory.exogenous] if theory.exogenous else [frozenset()]
        for context in contexts:
            masses = engine.distribution_bits(build_tree(theory, context))
            for formula in _formulas(theory) + [FALSE, Disjunction(tuple(_formulas(theory)[1:3]))]:
                want = sum(
                    (mass for bits, mass in masses.items()
                     if eval_formula(formula, theory.numbering.atom_set(bits))),
                    Fraction(0),
                )
                got = prob_formula(theory, context, formula)
                assert type(got) is Fraction
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_the_scale_of_a_deterministic_theory_is_one(self):
        theory = load_theory(self.THEORIES["deterministic"])
        assert [law.outcomes.scale for law in theory.laws] == [1, 1, 1]
        assert prob_formula(theory, interp("s"), parse_formula("b & !c")) == 1

    def test_outcome_tables(self):
        theory = load_theory(self.THEORIES["two-alternatives-beside-sixths"])
        first, second = theory.laws[:2]
        assert first.outcomes.pairs == ((Atom("a"), Fraction(1, 4)), (Atom("b"), Fraction(3, 4)))
        assert (first.outcomes.scale, first.outcomes.weights) == (4, (1, 3))
        assert first.outcomes.prob(NO_EFFECT) is None
        assert second.outcomes.pairs == ((Atom("c"), Fraction(1, 6)), (NO_EFFECT, Fraction(5, 6)))
        assert (second.outcomes.scale, second.outcomes.weights) == (6, (1, 5))
        assert second.outcomes.prob(NO_EFFECT) == Fraction(5, 6)
        assert second.outcomes is second.outcomes
        assert (first.outcomes.prob(Atom("b")), second.outcomes.prob(Atom("a"))) == (Fraction(3, 4), None)

    def test_outcome_tables_match_the_fraction_reference_on_the_corpus_and_random_theories(self):
        from math import lcm

        from randgen import random_cases

        theories = [corpus.theory(entry.theory_file) for entry in corpus.entries()]
        theories += [theory for theory, _ in random_cases(300)]
        checked = 0
        for theory in theories:
            for law in theory.laws:
                pairs = [(alt.atom, alt.prob) for alt in law.head]
                if law.no_effect_prob > 0:
                    pairs.append((NO_EFFECT, Fraction(1) - sum(alt.prob for alt in law.head)))
                scale = lcm(*[prob.denominator for _, prob in pairs])
                weights = tuple(prob.numerator * (scale // prob.denominator) for _, prob in pairs)
                table = law.outcomes
                assert table.pairs == tuple(pairs)
                assert (table.scale, table.weights) == (scale, weights)
                assert [type(w) for w in table.weights] == [int] * len(pairs)
                assert [Fraction(w, table.scale) for w in table.weights] == [p for _, p in pairs]
                checked += 1
        assert checked > 900

    def test_fractions_made_do_not_grow_with_the_chain(self):
        made = []
        for depth in (50, 500):
            theory = _chain(depth, ":9/10")
            goal = FormulaAtom(Atom(f"a{depth}"))
            prob_formula(theory, interp("a0"), goal)  # fills the laws' outcome tables
            value, count = _fractions_made(lambda: prob_formula(theory, interp("a0"), goal))
            assert value == Fraction(9, 10) ** depth
            made.append(count)
        assert made == [1, 1]  # the result alone

    def test_a_long_chain_sums_to_exactly_one(self):
        theory = _chain(2000, ":9/10")
        value = prob_formula(theory, interp("a0"), FormulaAtom(Atom("a0")))
        assert type(value) is Fraction and value == 1
