"""The frozenset engine: the reference the mask-based engine is held to.

States hold their interpretation, fired labels and overestimate as
frozensets, and every successor's overestimate is computed as soon as
the state is made. Apart from the imports, the shared value types and
its own atom-keyed body index (a theory now indexes bodies only by atom
bit, in its numbering), this is the engine as it was before states
became masks; the differential tests in ``test_engine.py`` compare the
two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterator, Sequence

from cplogic.core import Atom, CPLaw, Formula, Probability, Theory, check_known, eval_formula, formula_atoms
from cplogic.engine import (
    NO_EFFECT,
    Branch,
    Event,
    ExecutionTree,
    LawStatus,
    TreeNode,
)
from cplogic.errors import InvalidOutcomeError, NonExogenousInContextError, NotApplicableError

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class State:
    """A node of an execution tree.

    ``interp`` is the set of true atoms, ``fired`` the labels of laws
    consumed so far, ``over`` the cached overestimate of atoms that can
    still be caused (always a superset of ``interp``).
    """

    interp: frozenset
    fired: frozenset
    over: frozenset


def body_index(theory: Theory) -> tuple[dict, dict]:
    """Atom -> ascending positions of the laws whose body uses it,
    positively and negated; built once per theory object."""
    index = theory.__dict__.get("_reference_body_index")
    if index is None:
        positive: dict = {}
        negative: dict = {}
        for i, law in enumerate(theory.laws):
            for atom in law.positive_body:
                positive.setdefault(atom, []).append(i)
            for atom in law.negative_body:
                negative.setdefault(atom, []).append(i)
        index = theory.__dict__["_reference_body_index"] = (positive, negative)
    return index


def overestimate(theory: Theory, interp: AbstractSet[Atom], fired: AbstractSet[str]) -> frozenset:
    """Least fixpoint of the atoms that may still become true.

    An unfired law contributes its head atoms as long as none of its
    negated body atoms is already true (deviations are permanent) and
    its positive body atoms are themselves still causable.
    """
    interp = frozenset(interp)
    over = set(interp)
    candidates = [
        law
        for law in theory.laws
        if law.label not in fired and not (law.negative_body & interp)
    ]
    changed = True
    while changed:
        changed = False
        remaining = []
        for law in candidates:
            if law.positive_body <= over:
                if not law.head_atoms <= over:
                    over.update(law.head_atoms)
                changed = True
            else:
                remaining.append(law)
        candidates = remaining
    return frozenset(over)


def initial_state(theory: Theory, context: AbstractSet[Atom]) -> State:
    """Root state: endogenous atoms false, exogenous atoms as given."""
    context = frozenset(context)
    stray = context - theory.exogenous
    if stray:
        names = ", ".join(sorted(a.name for a in stray))
        raise NonExogenousInContextError(
            f"context may only contain exogenous atoms, got: {names}"
        )
    return State(context, frozenset(), overestimate(theory, context, frozenset()))


def law_status(theory: Theory, state: State, law: CPLaw) -> LawStatus:
    """Classify a law as fired, applicable, pending or impossible.

    Impossible means the body can never hold again: a positive
    precondition left the overestimate, or a negated one became true.
    Applicable requires the positive preconditions to be true now and
    every negated atom to be out of the overestimate for good.
    """
    if law.label in state.fired:
        return LawStatus.FIRED
    if not law.positive_body <= state.over or law.negative_body & state.interp:
        return LawStatus.IMPOSSIBLE
    if law.positive_body <= state.interp and not law.negative_body & state.over:
        return LawStatus.APPLICABLE
    return LawStatus.PENDING


def fire(theory: Theory, state: State, law: CPLaw, outcome) -> State:
    """Fire an applicable law, returning the successor state.

    ``outcome`` is a head atom, or NO_EFFECT when the head leaves
    residual probability. Realizing an atom that is already true leaves
    the interpretation unchanged but still consumes the law.
    """
    status = law_status(theory, state, law)
    if status is not LawStatus.APPLICABLE:
        raise NotApplicableError(
            f"law {law.label} is {status.value}, not applicable"
        )
    if outcome is NO_EFFECT:
        if law.no_effect_prob <= 0:
            raise InvalidOutcomeError(
                f"law {law.label} has no residual probability for a no-effect firing"
            )
        new = None
    else:
        if not isinstance(outcome, Atom) or outcome not in law.head_atoms:
            raise InvalidOutcomeError(
                f"{outcome} is not a head atom of law {law.label}"
            )
        new = None if outcome in state.interp else outcome
    interp = state.interp if new is None else state.interp | {new}
    fired = state.fired | {law.label}
    # The step drops from the fixpoint's candidates the fired law and the
    # unfired laws the new atom blocks. Only atoms whose support ran
    # through a dropped law can leave the overestimate, so if every
    # dropped law that could contribute (positive body in the parent's
    # overestimate) has all its head atoms true, it stays as it is.
    negated_in = body_index(theory)[1]
    kept = law.head_atoms <= interp
    if kept and new in negated_in:
        kept = all(
            blocked.head_atoms <= interp
            for blocked in map(theory.laws.__getitem__, negated_in[new])
            if blocked.label not in state.fired
            and blocked.positive_body <= state.over
            and not blocked.negative_body & state.interp
        )
    return State(interp, fired, state.over if kept else overestimate(theory, interp, fired))


def applicable_laws(theory: Theory, state: State) -> list[CPLaw]:
    return [
        law
        for law in theory.laws
        if law_status(theory, state, law) is LawStatus.APPLICABLE
    ]


def _root(theory: Theory, context: AbstractSet[Atom]) -> tuple[State, list[int]]:
    """The initial state and the positions of its applicable laws."""
    root = initial_state(theory, context)
    ready = {law.label for law in applicable_laws(theory, root)}
    return root, [i for i, law in enumerate(theory.laws) if law.label in ready]


def _next_ready(theory: Theory, state: State, ready: list[int], pos: int, outcome, child: State) -> list[int]:
    """Positions of the laws applicable in ``child``, in theory order.

    ``child`` is ``state`` after law ``pos`` fired with ``outcome``, and
    ``ready`` lists the laws applicable in ``state``. Applicability is
    monotone along a branch until the law fires, so the child keeps
    every other law of ``ready``. A law can only become applicable
    when a positive body atom comes true or a negated one leaves the
    overestimate, so those laws alone are checked.
    """
    positive, negative = body_index(theory)
    woken: list = []
    if outcome is not NO_EFFECT and outcome not in state.interp:
        woken += positive.get(outcome, ())
    if child.over is not state.over:
        for atom in negative.keys() & (state.over - child.over):
            woken += negative[atom]
    rest = ready.copy()
    rest.remove(pos)
    if not woken:
        return rest
    laws = theory.laws
    new = [i for i in set(woken) if law_status(theory, child, laws[i]) is LawStatus.APPLICABLE]
    return sorted(rest + new) if new else rest


def _policy_rank(theory: Theory, policy: Sequence[str] | None) -> dict:
    if policy is None:
        return {law.label: i for i, law in enumerate(theory.laws)}
    rank: dict = {}
    for label in policy:
        theory.law(label)  # raises UnknownLabelError for bogus labels
        rank.setdefault(label, len(rank))
    base = len(rank)
    for i, law in enumerate(theory.laws):
        rank.setdefault(law.label, base + i)
    return rank


def _outcomes(law: CPLaw) -> list[tuple[object, Probability]]:
    """Every possible outcome of the law's event with its probability."""
    out = [(alt.atom, alt.prob) for alt in law.head]
    if law.no_effect_prob > 0:
        out.append((NO_EFFECT, law.no_effect_prob))
    return out

def build_tree(
    theory: Theory,
    context: AbstractSet[Atom] = frozenset(),
    policy: Sequence[str] | None = None,
) -> ExecutionTree:
    """Build one full execution tree under an event-order policy.

    The policy is a label priority order; at each node the applicable
    unfired law with the best rank fires. The default is file order.
    Any fixed policy yields the same final-state distribution, so
    probability queries build a single tree.

    A subtree depends only on its root's ``(interp, fired)``, so equal
    states share one ``TreeNode``: the result is a DAG whose per-path
    walks (``nodes``, ``leaves_with_mass``) see the full tree. The
    builder keeps an explicit stack, so depth is not bounded by
    Python's recursion limit.
    """
    rank = _policy_rank(theory, policy)
    laws = theory.laws
    root, root_ready = _root(theory, context)
    built: dict = {}  # (interp, fired) -> TreeNode
    # A state is pushed with its applicable laws' positions and plan
    # None; once its children are pushed above it, plan holds the fired
    # law and its child states, in the order of the law's outcomes.
    stack: list = [(root, root_ready, None)]
    while stack:
        state, ready, plan = stack[-1]
        if plan is None:
            if (state.interp, state.fired) in built:
                stack.pop()
                continue
            if not ready:
                stack.pop()
                built[state.interp, state.fired] = TreeNode(state, None, ())
                continue
            pos = ready[0] if len(ready) == 1 else min(ready, key=lambda i: rank[laws[i].label])
            law = laws[pos]
            outcomes = _outcomes(law)
            # A node's edges are read off its law's table, so the table
            # is checked against this engine's own list of outcomes.
            assert outcomes == list(law.outcomes.pairs), law
            children = [fire(theory, state, law, outcome) for outcome, _ in outcomes]
            stack[-1] = (state, ready, (law, children))
            stack.extend(
                (child, _next_ready(theory, state, ready, pos, outcome, child), None)
                for (outcome, _), child in zip(outcomes, children)
            )
        else:
            stack.pop()
            law, children = plan
            built[state.interp, state.fired] = TreeNode(
                state, law, tuple(built[child.interp, child.fired] for child in children)
            )
    return ExecutionTree(theory, built[root.interp, root.fired])


def enumerate_branches(
    theory: Theory,
    context: AbstractSet[Atom] = frozenset(),
    target: AbstractSet[Atom] | None = None,
) -> Iterator[Branch]:
    """Depth-first stream of all branches over all event orders.

    With a target interpretation, subtrees are pruned as soon as the
    current state made an atom outside the target true, or some missing
    target atom can no longer be caused; exactly the branches whose leaf
    interpretation equals the target are yielded.
    """
    if target is not None:
        target = frozenset(target)
        check_known(target, theory.vocabulary, "target")
    root, root_ready = _root(theory, context)
    laws = theory.laws

    def walk() -> Iterator[Branch]:
        # Explicit stack, so depth is not bounded by Python's recursion
        # limit: moves[i] holds the untried (law position, outcome) steps
        # out of states[i], readies[i] the positions of the laws
        # applicable there, and events[i] leads from states[i] to
        # states[i + 1].
        states = [root]
        readies = [root_ready]
        events: list[Event] = []
        moves: list = []
        while True:
            state = states[-1]
            steps: list = []
            if target is None or (state.interp <= target and target - state.interp <= state.over):
                if readies[-1]:
                    steps = [(pos, outcome) for pos in readies[-1] for outcome, _ in _outcomes(laws[pos])]
                elif target is None or state.interp == target:
                    yield Branch(tuple(states), tuple(events))
            moves.append(iter(steps))
            while (step := next(moves[-1], None)) is None:
                moves.pop()
                if not moves:
                    return
                states.pop()
                readies.pop()
                events.pop()
            pos, outcome = step
            law = laws[pos]
            child = fire(theory, states[-1], law, outcome)
            readies.append(_next_ready(theory, states[-1], readies[-1], pos, outcome, child))
            states.append(child)
            events.append(Event(law.label, outcome))

    return walk()


def distribution(tree: ExecutionTree) -> dict:
    """Aggregate leaf probability mass by final interpretation."""
    dist: dict = {}
    for leaf, mass in tree.leaves_with_mass():
        interp = leaf.state.interp
        dist[interp] = dist.get(interp, _ZERO) + mass
    return dist


def prob_formula(
    theory: Theory,
    context: AbstractSet[Atom],
    formula: Formula,
    vocabulary: AbstractSet[Atom] | None = None,
) -> Probability:
    """Exact probability of a formula holding in the final state.

    ``vocabulary`` widens the set of known atoms; callers checking a
    transformed theory pass the original theory's vocabulary so that
    atoms whose causing laws were removed stay queryable.
    """
    vocab = theory.vocabulary if vocabulary is None else vocabulary
    check_known(formula_atoms(formula), vocab, "formula")
    return fold_formulas(build_tree(theory, context), [formula])[0]


def fold_formulas(tree: ExecutionTree, formulas: Sequence[Formula]) -> list[Probability]:
    """The probability of each formula holding in the final state, from
    one fold of ``tree``."""
    # Fold the shared tree level by level: every edge fires one law, so
    # all paths to a node have the same length and a node's mass is
    # complete once the level above it is done.
    root = tree.root
    totals = [_ZERO] * len(formulas)
    level = {id(root): (root, _ONE)}
    while level:
        below: dict = {}
        for node, mass in level.values():
            if not node.edges:
                for k, formula in enumerate(formulas):
                    if eval_formula(formula, node.state.interp):
                        totals[k] += mass
                continue
            for edge in node.edges:
                share = mass * edge.prob
                seen = below.get(id(edge.child))
                below[id(edge.child)] = (edge.child, share if seen is None else seen[1] + share)
        level = below
    return totals
