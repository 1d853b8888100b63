"""Actual-causation queries over branches of execution trees.

The complete-information check asks: in the story that actually took
place, would the effect still have had nonzero probability once the
cause is prevented? Three theory transformations make that precise:

* ``fix_story`` freezes every fired event to its realized outcome,
* ``prevent`` deletes an atom from every head it appears in,
* ``force`` adds a vacuous deterministic law for an atom (used when the
  candidate cause is the *absence* of an atom).

Relevance filtering happens first: only events that fired before the
effect arose, plus laws that were already impossible by then, take part
in the counterfactual. The partial-information check runs the complete
check over every branch that could have produced an observed final
state and reports whether the candidate is a cause in all, some, or
none of them. A verdict depends only on the set of events that fired
before the effect arose (the prefix set), not on their order. So the
partial check reads each branch's effect index and prefix set once,
builds the relevant story-fixed theory once per prefix set for all
candidates, since it does not depend on the cause, and computes each
candidate's verdict once per prefix set. A law that fired with no
visible effect drops out of the story-fixed theory, so many prefix sets
fix equal theories (k of them for the k·2^(k−1) prefix sets of k thrown
throwers), and each candidate's counterfactual is computed once per
distinct story-fixed theory. A check of its own, outside such a call,
is the classification of its one branch: one path builds every verdict.
"""

from __future__ import annotations

import contextvars
import enum
import operator
from collections.abc import Iterable, Mapping, Sequence, Set as AbstractSet
from fractions import Fraction

from .core import (
    Atom,
    CPLaw,
    HeadAlternative,
    Literal,
    Probability,
    Record,
    Theory,
    check_known,
    literal_formula,
    setfield,
)
from .engine import (
    NO_EFFECT,
    Branch,
    Event,
    LawStatus,
    State,
    enumerate_branches,
    law_status,
    prob_formula,
)
from .errors import (
    BranchTheoryMismatchError,
    EffectNeverHoldsError,
    ExogenousForcedError,
    PreconditionNotInFinalStateError,
    SelfCauseQueryError,
)


class CauseQuery(Record):
    """A candidate cause and an effect, both literals."""

    __slots__ = ("cause", "effect")

    def __init__(self, cause: Literal, effect: Literal):
        if cause == effect:
            raise SelfCauseQueryError(
                f"cause and effect are the same literal: {cause}"
            )
        setfield(self, "cause", cause)
        setfield(self, "effect", effect)


class Verdict(Record):
    """Outcome of a complete-information query, with its full witness.

    ``is_cause`` holds exactly when ``effect_prob`` is zero: preventing
    the cause in the story-fixed relevant theory leaves no way for the
    effect to occur.
    """

    __slots__ = ("is_cause", "cut_index", "relevant", "counterfactual", "context", "effect_prob")

    def __init__(self, is_cause: bool, cut_index: int, relevant: Theory, counterfactual: Theory,
                 context: frozenset, effect_prob: Probability):
        setfield(self, "is_cause", is_cause)
        setfield(self, "cut_index", cut_index)
        setfield(self, "relevant", relevant)
        setfield(self, "counterfactual", counterfactual)
        setfield(self, "context", context)
        setfield(self, "effect_prob", effect_prob)


class CauseClassification(enum.Enum):
    CERTAIN = "certain"
    POSSIBLE_ONLY = "possible"
    NOT_POSSIBLE = "not-possible"


class PartialVerdict(Record):
    """Partial-information outcome: cause in all / some / none of the branches."""

    __slots__ = ("classification", "supporting", "branches")

    def __init__(self, classification: CauseClassification, supporting: int, branches: int):
        setfield(self, "classification", classification)
        setfield(self, "supporting", supporting)
        setfield(self, "branches", branches)


# ---------------------------------------------------------------------------
# Theory transformations


def fix_story(theory: Theory, branch: Branch) -> Theory:
    """Freeze the branch's events into the theory.

    Laws that never fired are kept as they are. A law that fired with a
    realized outcome is replaced by the deterministic law producing that
    outcome from the same body; one that fired without visible effect,
    which needs residual probability, is dropped. Events whose law is
    not in ``theory`` are ignored, so a branch of a larger theory applies
    to a restriction of it. A fired law that already is deterministic
    is kept as it is, and a theory whose laws all stay is returned itself.
    """
    realized: dict[str, object] = {}
    for event in branch.events:
        law = theory._by_label.get(event.label)
        if law is None:
            continue
        if event.label in realized:
            raise BranchTheoryMismatchError(
                f"law {event.label} fires twice in the branch"
            )
        if law.outcomes.prob(event.outcome) is None:
            raise BranchTheoryMismatchError(
                f"branch realizes {event.outcome} which law {event.label} cannot produce"
            )
        realized[event.label] = event.outcome

    laws = []
    for law in theory.laws:
        if law.label not in realized:
            laws.append(law)
            continue
        outcome = realized[law.label]
        if outcome is NO_EFFECT:
            continue
        alt = law.head[0]
        if len(law.head) == 1 and alt.prob == 1 and not alt.symbolic:
            laws.append(law)  # already the deterministic law for its outcome
        else:
            laws.append(CPLaw(
                (HeadAlternative(outcome, Fraction(1)),), law.body, law.label
            ))
    return _with_laws(theory, laws)


def prevent(theory: Theory, atom: Atom) -> Theory:
    """Delete the atom from every head it appears in.

    Remaining head probabilities are kept as they are (not
    renormalized); the freed mass becomes a no-effect possibility. Laws
    whose head becomes empty disappear. A theory in none of whose heads
    the atom appears is returned itself.
    """
    laws = []
    for law in theory.laws:
        kept = tuple(alt for alt in law.head if alt.atom != atom)
        if len(kept) == len(law.head):
            laws.append(law)
        elif kept:
            laws.append(CPLaw(kept, law.body, law.label))
    return _with_laws(theory, laws)


def _with_laws(theory: Theory, laws: list[CPLaw]) -> Theory:
    """``theory`` with its laws replaced by ``laws``: the input object
    itself when they are its own laws, so that its numbering and body
    index, computed once per theory object, are reused."""
    if len(laws) == len(theory.laws) and all(map(operator.is_, laws, theory.laws)):
        return theory
    return Theory(tuple(laws), theory.exogenous)


def force(theory: Theory, atom: Atom) -> Theory:
    """Append a vacuous deterministic law making the atom true."""
    if atom in theory.exogenous:
        raise ExogenousForcedError(
            f"{atom} is exogenous; set it in the initial context instead"
        )
    base = f"force_{atom.name}"
    label, k = base, 2
    while label in theory._by_label:
        label = f"{base}_{k}"
        k += 1
    forced = CPLaw((HeadAlternative(atom, Fraction(1)),), (), label)
    return Theory(theory.laws + (forced,), theory.exogenous)


# ---------------------------------------------------------------------------
# Dependency and relevance


def _require_holds(lits: Iterable[Literal], state: State) -> None:
    for lit in lits:
        if bool(state.interp_bits & state.theory.numbering.bit(lit.atom)) != lit.positive:
            raise PreconditionNotInFinalStateError(
                f"{lit} does not hold in the branch's final state"
            )


def _counterfactual(
    theory: Theory, fixed: Theory, branch: Branch, cause: Literal, effect: Literal
) -> tuple[Theory, frozenset, Probability]:
    """Prevent (or force) the cause in the story-fixed theory, adjust the
    initial context, and return both with the effect's probability there."""
    context = branch.states[0].interp
    if cause.positive:
        twisted, context = prevent(fixed, cause.atom), context - {cause.atom}
    elif cause.atom in theory.exogenous:
        twisted, context = fixed, context | {cause.atom}
    else:
        twisted = force(fixed, cause.atom)
    prob = prob_formula(
        twisted, context, literal_formula(effect), vocabulary=theory.vocabulary
    )
    return twisted, context, prob


def counterfactual_dependency(
    theory: Theory, branch: Branch, cause: Literal, effect: Literal
) -> bool:
    """Does preventing the cause in the story-fixed theory zero the effect?

    No relevance filtering here: the whole theory is fixed to the
    branch. Used on its own this over-reports non-causation whenever a
    redundant mechanism would have produced the effect anyway.
    """
    check_known({cause.atom, effect.atom}, theory.vocabulary, "query")
    _require_holds((cause, effect), branch.final_state)
    _, _, prob = _counterfactual(theory, fix_story(theory, branch), branch, cause, effect)
    return prob == 0


def effect_index(branch: Branch, effect: Literal) -> int:
    """First state index where the effect holds.

    For a positive literal that is the state where the atom became true;
    for a negative literal, the state where the atom dropped out of the
    overestimate, i.e. stopped being causable.
    """
    bit = branch.states[0].theory.numbering.bit(effect.atom)
    for k, state in enumerate(branch.states):
        if effect.positive:
            if state.interp_bits & bit:
                return k
        elif not bit & state.over_bits:
            return k
    raise EffectNeverHoldsError(f"{effect} never starts to hold along the branch")


def relevant_theory(theory: Theory, branch: Branch, effect: Literal) -> Theory:
    """The laws that matter for how the effect came about.

    Keeps the laws that fired strictly before the effect arose and the
    laws that were already impossible by then. For a positive effect
    impossibility is judged in the state the effect-producing event
    fired from; for a negative effect, in the state where the atom left
    the overestimate (the moment the absence became settled). Law
    objects are shared with the input theory, not copied, and when
    every law is kept the input theory itself is returned.
    """
    j = effect_index(branch, effect)
    fired_before = {event.label for event in branch.events[:j]}
    cut = branch.states[j] if not effect.positive else branch.states[max(j - 1, 0)]
    keep = []
    for law in theory.laws:
        if law.label in fired_before:
            keep.append(law)
        elif law_status(theory, cut, law) is LawStatus.IMPOSSIBLE:
            keep.append(law)
    return _with_laws(theory, keep)


# ---------------------------------------------------------------------------
# Verdicts

class _Classification:
    """What the ``actual_cause`` checks of one classification share: its
    ``theory`` and ``query`` (both compared by identity), whose
    preconditions have been checked. ``classify_causes`` runs one for
    all its branches, query by query; a check of its own is the
    classification of its one branch, under the key ``None``.

    ``branches`` maps ``id(branch)`` to ``(j, key)``: the index where the
    effect first holds and the set of events before it (the call holds
    its branches, so no other live object has their ids). ``stories``
    maps a key to its relevant and story-fixed theories, which do not
    read the cause; a story-fixed theory other than ``theory`` is
    interned in ``fixed``, so keys with equal ones share one object.
    ``verdicts`` maps a key to the query's verdict, and
    ``counterfactuals`` the id of an interned story-fixed theory to the
    query's ``_counterfactual``.
    """

    __slots__ = ("theory", "query", "branches", "stories", "fixed", "verdicts", "counterfactuals")

    def __init__(self, theory: Theory, query: CauseQuery | None = None):
        self.theory = theory
        self.query = query
        self.branches: dict[int, tuple[int, frozenset]] = {}
        self.stories: dict[frozenset | None, tuple[Theory, Theory]] = {}
        self.fixed: dict[Theory, Theory] = {}
        self.verdicts: dict[frozenset | None, Verdict] = {}
        self.counterfactuals: dict[int, tuple[Theory, frozenset, Probability]] = {}


#: The running ``classify_causes`` call's ``_Classification``; unset
#: outside such a call.
_verdict_memo: contextvars.ContextVar[_Classification | None] = contextvars.ContextVar(
    "cplogic_verdict_memo", default=None
)

#: ``(label, outcome)`` of an event: equal exactly when the events are,
#: and cheaper to hash.
_event_key = Event._values


def actual_cause(theory: Theory, branch: Branch, query: CauseQuery) -> Verdict:
    """Complete-information check of one cause/effect pair on one branch."""
    run = _verdict_memo.get()
    entry = None
    if run is not None and run.query is query and run.theory is theory:
        entry = run.branches.get(id(branch))
    if entry is None:
        # A check of its own: the classification of its one branch.
        check_known({query.cause.atom, query.effect.atom}, theory.vocabulary, "query")
        _require_holds((query.cause, query.effect), branch.final_state)
        run = _Classification(theory, query)
        entry = (effect_index(branch, query.effect), None)
    # Sound because every branch of one classification starts in the
    # same context: the relevant laws, the cut state and the story-fixed
    # theory are all fixed by the prefix set, and the counterfactual
    # reads only the story-fixed theory and that context.
    j, key = entry
    verdict = run.verdicts.get(key)
    if verdict is not None:
        return verdict
    story = run.stories.get(key)
    if story is None:
        relevant = relevant_theory(theory, branch, query.effect)
        fixed = fix_story(relevant, branch)
        # Interning pays only where keys may share a theory, and only the
        # input theory itself equals the input theory.
        if key is not None and fixed is not theory:
            fixed = run.fixed.setdefault(fixed, fixed)
        story = run.stories[key] = (relevant, fixed)
    relevant, fixed = story
    twisted = run.counterfactuals.get(id(fixed))
    if twisted is None:
        twisted = run.counterfactuals[id(fixed)] = _counterfactual(
            theory, fixed, branch, query.cause, query.effect
        )
    counterfactual, context, prob = twisted
    verdict = run.verdicts[key] = Verdict(prob == 0, j, relevant, counterfactual, context, prob)
    return verdict


def default_candidates(
    theory: Theory, final_interp: AbstractSet[Atom], effect: Literal
) -> tuple[Literal, ...]:
    """Every literal that holds in the final state, except the effect itself."""
    positives = [Literal(atom) for atom in sorted(final_interp)]
    negatives = [
        Literal(atom, False) for atom in sorted(theory.vocabulary - final_interp)
    ]
    return tuple(lit for lit in positives + negatives if lit != effect)


def classify_causes(
    theory: Theory,
    final_interp: AbstractSet[Atom],
    effect: Literal,
    candidates: Sequence[Literal] | None = None,
    context: AbstractSet[Atom] | None = None,
) -> Mapping[Literal, PartialVerdict]:
    """Partial-information verdict for each candidate.

    Enumerates every branch that ends in the observed final state (the
    exogenous context is read off that state unless given explicitly)
    and runs the complete-information check per branch. A candidate is a
    certain cause when every branch agrees, a possible one when at least
    one does. Branches that share the set of events before the effect
    share one story-fixed theory during this call, and one verdict per
    candidate; equal story-fixed theories share one counterfactual per
    candidate.
    """
    final_interp = frozenset(final_interp)
    check_known(final_interp, theory.vocabulary, "final state")
    query_atoms = {effect.atom}
    query_atoms.update(lit.atom for lit in candidates or ())
    check_known(query_atoms, theory.vocabulary, "query")
    if not effect.holds_in(final_interp):
        raise PreconditionNotInFinalStateError(
            f"{effect} does not hold in the observed final state"
        )
    if candidates is None:
        candidates = default_candidates(theory, final_interp, effect)
    elif effect in candidates:
        raise SelfCauseQueryError(f"candidate {effect} is the effect itself")
    if context is None:
        context = final_interp & theory.exogenous
    branches = list(enumerate_branches(theory, context, target=final_interp))

    verdicts: dict[Literal, PartialVerdict] = {}
    run = _Classification(theory)
    if any(cand.holds_in(final_interp) for cand in candidates):
        for b in branches:
            j = effect_index(b, effect)
            run.branches[id(b)] = (j, frozenset(map(_event_key, b.events[:j])))
    token = _verdict_memo.set(run)
    try:
        for cand in candidates:
            if not cand.holds_in(final_interp):
                verdicts[cand] = PartialVerdict(
                    CauseClassification.NOT_POSSIBLE, 0, len(branches)
                )
                continue
            run.query = query = CauseQuery(cand, effect)
            run.verdicts = {}
            run.counterfactuals = {}
            supporting = sum(actual_cause(theory, b, query).is_cause for b in branches)
            if branches and supporting == len(branches):
                kind = CauseClassification.CERTAIN
            elif supporting:
                kind = CauseClassification.POSSIBLE_ONLY
            else:
                kind = CauseClassification.NOT_POSSIBLE
            verdicts[cand] = PartialVerdict(kind, supporting, len(branches))
    finally:
        _verdict_memo.reset(token)
    return verdicts
