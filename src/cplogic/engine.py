"""Execution semantics for validated theories.

A state tracks three things: the atoms made true so far, the laws that
have already fired, and an overestimate of every atom that can
still be caused. Negation in law bodies is read strongly: ``~a`` holds
in a state only once ``a`` has dropped out of the overestimate, meaning
it can never become true anymore. Trees, branch enumeration, story
replay and probability queries all build on those states; probabilities
are exact rationals throughout.

A state stores its three sets as ``int`` masks over its theory's
``numbering`` (``core.Numbering``: one bit per atom and per law), so a
step ORs in one bit instead of copying sets, and the public ``interp``,
``fired`` and ``over`` frozensets are views built only when read.
States from another theory object are converted through those views.

Successor states are incremental, and the overestimate is computed on
demand. ``fire`` keeps the parent's overestimate when the parent has
one and the step removed no atom's only support; otherwise the child's
stays unset, and the full fixpoint runs the first time something reads
it. Only a negated body, the target cut of ``enumerate_branches`` and
the causation queries read it: a law without negated body is
applicable once its positive body is true. The tree builder and the
branch walker carry each state's applicable laws down their stacks
and, after a step, recheck only the laws that the numbering's
``pos_users`` and ``neg_users`` tie to the new atom or to atoms that
left the overestimate. ``overestimate`` and ``applicable_laws`` compute
from scratch; the walkers call the latter only at the root. The
fixpoint ``overestimate`` works on masks only, in and out; a state's
``over`` is its one frozenset view.

One walker, ``_fold``, sums the leaf masses per final state, level by
level, visiting each shared tree node once. It runs with two kinds of
mass. ``distribution_bits``, which ``distribution`` and ``cplogic
tree`` read, passes exact ``Fraction`` masses. ``prob_formula`` passes
integers over the product of every law's scale (the lcm of its outcome
denominators, in the law's ``outcomes`` table), so the only
``Fraction`` it makes is its answer.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence, Set as AbstractSet
from fractions import Fraction
from math import prod

from .core import (
    NO_EFFECT,
    Atom,
    CPLaw,
    Formula,
    Numbering,
    Outcome,
    Probability,
    Record,
    Theory,
    bit_positions,
    check_known,
    compute_once,
    eval_formula,
    formula_atoms,
    setfield,
)
from .errors import (
    IllegalStepError,
    InvalidOutcomeError,
    NonExogenousInContextError,
    NotApplicableError,
)

TYPE_CHECKING = False  # true only for a static type checker
if TYPE_CHECKING:  # pragma: no cover
    from .textio import StoryDocument


_ONE = Fraction(1)


class LawStatus(enum.Enum):
    """Mutually exclusive status of one law in one state."""

    FIRED = "fired"
    APPLICABLE = "applicable"
    PENDING = "pending"
    IMPOSSIBLE = "impossible"


class State:
    """A node of an execution tree.

    ``interp`` is the set of true atoms, ``fired`` the labels of laws
    consumed so far, ``over`` the overestimate of atoms that can still
    be caused (always a superset of ``interp``). The state keeps them
    as masks over its theory's ``numbering``: ``interp_bits``,
    ``fired_bits`` and ``over_bits``, the last computed the first time
    something reads it. The frozensets are views, built on first read
    and never by the engine itself. Equality, hashing, pickling and
    ``repr`` go by the three views.
    """

    __slots__ = ("theory", "interp_bits", "fired_bits", "_over", "__dict__")

    def __init__(self, theory: Theory, interp_bits: int, fired_bits: int, over_bits: int | None = None):
        self.theory = theory
        self.interp_bits = interp_bits
        self.fired_bits = fired_bits
        self._over = over_bits

    @property
    def over_bits(self) -> int:
        over = self._over
        if over is None:
            over = self._over = overestimate(self.theory, self.interp_bits, self.fired_bits)
        return over

    @compute_once
    def interp(self) -> frozenset:
        return self.theory.numbering.atom_set(self.interp_bits)

    @compute_once
    def fired(self) -> frozenset:
        return self.theory.numbering.label_set(self.fired_bits)

    @compute_once
    def over(self) -> frozenset:
        return self.theory.numbering.atom_set(self.over_bits)

    def __eq__(self, other):
        if not isinstance(other, State):
            return NotImplemented
        if self.theory is other.theory:
            return (self.interp_bits == other.interp_bits and self.fired_bits == other.fired_bits
                    and self.over_bits == other.over_bits)
        return (self.interp, self.fired, self.over) == (other.interp, other.fired, other.over)

    def __hash__(self):
        return hash((self.interp, self.fired, self.over))

    def __repr__(self):
        return f"State(interp={self.interp!r}, fired={self.fired!r}, over={self.over!r})"

    def __reduce__(self):
        return State, (self.theory, self.interp_bits, self.fired_bits, self.over_bits)


class Event(Record):
    """One step of a branch: which law fired and what it realized."""

    __slots__ = ("label", "outcome")

    def __init__(self, label: str, outcome: Outcome):
        setfield(self, "label", label)
        setfield(self, "outcome", outcome)

    def __str__(self) -> str:
        return f"{self.label} -> {self.outcome}"


class Branch(Record):
    """A root-to-node path: successive states plus the events between them."""

    __slots__ = ("states", "events")

    def __init__(self, states: tuple[State, ...], events: tuple[Event, ...]):
        setfield(self, "states", states)
        setfield(self, "events", events)

    @property
    def final_state(self) -> State:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.events)


class TreeEdge(Record):
    __slots__ = ("outcome", "prob", "child")

    def __init__(self, outcome: Outcome, prob: Probability, child: TreeNode):
        setfield(self, "outcome", outcome)
        setfield(self, "prob", prob)
        setfield(self, "child", child)


class TreeNode(Record):
    """An execution-tree node; internal nodes record the law that fired."""

    __slots__ = ("state", "law", "edges")

    def __init__(self, state: State, law: CPLaw | None, edges: tuple[TreeEdge, ...]):
        setfield(self, "state", state)
        setfield(self, "law", law)
        setfield(self, "edges", edges)

    @property
    def is_leaf(self) -> bool:
        return not self.edges


class ExecutionTree(Record):
    __slots__ = ("theory", "root")

    def __init__(self, theory: Theory, root: TreeNode):
        setfield(self, "theory", theory)
        setfield(self, "root", root)

    def nodes(self) -> Iterator[TreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(edge.child for edge in node.edges)

    def leaves_with_mass(self) -> Iterator[tuple[TreeNode, Probability]]:
        """Leaves paired with the product of edge probabilities to them."""
        stack = [(self.root, _ONE)]
        while stack:
            node, mass = stack.pop()
            if node.is_leaf:
                yield node, mass
            else:
                stack.extend((e.child, mass * e.prob) for e in node.edges)


#: Exact probability mass per final interpretation.
Distribution = dict


def overestimate(theory: Theory, interp: int, fired: int) -> int:
    """Least fixpoint of the atoms that may still become true.

    An unfired law contributes its head atoms as long as none of its
    negated body atoms is already true (deviations are permanent) and
    its positive body atoms are themselves still causable.

    ``interp`` (the true atoms), ``fired`` (the fired laws) and the
    result are masks over ``theory.numbering``; ``State.over`` is the
    frozenset view of the result.
    """
    numbering = theory.numbering
    pos, neg, head = numbering.pos, numbering.neg, numbering.head
    over = interp
    candidates = [i for i in range(len(head)) if not fired >> i & 1 and not neg[i] & interp]
    changed = True
    while changed:
        changed = False
        remaining = []
        for i in candidates:
            if pos[i] & ~over:
                remaining.append(i)
            else:
                over |= head[i]
                changed = True
        candidates = remaining
    return over


def initial_state(theory: Theory, context: AbstractSet[Atom]) -> State:
    """Root state: endogenous atoms false, exogenous atoms as given."""
    context = frozenset(context)
    stray = context - theory.exogenous
    if stray:
        names = ", ".join(sorted(stray))
        raise NonExogenousInContextError(
            f"context may only contain exogenous atoms, got: {names}"
        )
    return State(theory, theory.numbering.atom_mask(context), 0)


def _adopt(theory: Theory, state: State) -> State:
    """A state of another theory object, converted through its views."""
    numbering = theory.numbering
    return State(
        theory,
        numbering.atom_mask(state.interp),
        numbering.law_mask(state.fired),
        numbering.atom_mask(state.over),
    )


def _applicable(numbering: Numbering, state: State, i: int) -> bool:
    """Is law ``i`` applicable? Reads the overestimate only for a law
    with a negated body: otherwise its positive body is true, hence
    inside the overestimate."""
    neg = numbering.neg[i]
    return (
        not state.fired_bits >> i & 1
        and not numbering.pos[i] & ~state.interp_bits
        and not (neg and neg & state.over_bits)
    )


def law_status(theory: Theory, state: State, law: CPLaw) -> LawStatus:
    """Classify a law as fired, applicable, pending or impossible.

    Impossible means the body can never hold again: a positive
    precondition left the overestimate, or a negated one became true.
    Applicable requires the positive preconditions to be true now and
    every negated atom to be out of the overestimate for good.
    """
    if state.theory is not theory:
        state = _adopt(theory, state)
    numbering = theory.numbering
    i = numbering.position[law.label]
    if state.fired_bits >> i & 1:
        return LawStatus.FIRED
    if _applicable(numbering, state, i):
        return LawStatus.APPLICABLE
    if numbering.neg[i] & state.interp_bits or numbering.pos[i] & ~state.over_bits:
        return LawStatus.IMPOSSIBLE
    return LawStatus.PENDING


def fire(theory: Theory, state: State, law: CPLaw, outcome) -> State:
    """Fire an applicable law, returning the successor state.

    ``outcome`` is a head atom, or NO_EFFECT when the head leaves
    residual probability. Realizing an atom that is already true leaves
    the interpretation unchanged but still consumes the law.
    """
    if state.theory is not theory:
        state = _adopt(theory, state)
    numbering = theory.numbering
    i = numbering.position[law.label]
    if not _applicable(numbering, state, i):
        raise NotApplicableError(
            f"law {law.label} is {law_status(theory, state, law).value}, not applicable"
        )
    if outcome is NO_EFFECT:
        if not law.outcomes.allows_no_effect:
            raise InvalidOutcomeError(
                f"law {law.label} has no residual probability for a no-effect firing"
            )
        new = 0
    else:
        if not isinstance(outcome, Atom) or outcome not in law.head_atoms:
            raise InvalidOutcomeError(
                f"{outcome} is not a head atom of law {law.label}"
            )
        new = 1 << numbering.index[outcome] & ~state.interp_bits
    interp = state.interp_bits | new
    # The step drops from the fixpoint's candidates the fired law and the
    # unfired laws the new atom blocks. Only atoms whose support ran
    # through a dropped law can leave the overestimate, so if every
    # dropped law that could contribute (positive body in the parent's
    # overestimate) has all its head atoms true, it stays as it is.
    # Otherwise the child's overestimate waits until something reads it.
    over = state._over
    if over is not None and numbering.head[i] & ~interp:
        over = None
    if over is not None and new:
        pos, neg, head = numbering.pos, numbering.neg, numbering.head
        fired = state.fired_bits
        for j in numbering.neg_users[numbering.index[outcome]]:
            if (head[j] & ~interp and not fired >> j & 1
                    and not pos[j] & ~over and not neg[j] & state.interp_bits):
                over = None
                break
    return State(theory, interp, state.fired_bits | 1 << i, over)


def applicable_laws(theory: Theory, state: State) -> list[CPLaw]:
    if state.theory is not theory:
        state = _adopt(theory, state)
    numbering = theory.numbering
    return [law for i, law in enumerate(theory.laws) if _applicable(numbering, state, i)]


def _root(theory: Theory, context: AbstractSet[Atom]) -> tuple[State, list[int]]:
    """The initial state and the positions of its applicable laws."""
    root = initial_state(theory, context)
    position = theory.numbering.position
    return root, [position[law.label] for law in applicable_laws(theory, root)]


def _next_ready(theory: Theory, state: State, ready: list[int], pos: int, outcome, child: State) -> list[int]:
    """Positions of the laws applicable in ``child``, in theory order.

    ``child`` is ``state`` after law ``pos`` fired with ``outcome``, and
    ``ready`` lists the laws applicable in ``state``. Applicability is
    monotone along a branch until the law fires, so the child keeps
    every other law of ``ready``. A law can only become applicable
    when a positive body atom comes true or a negated one leaves the
    overestimate, so those laws alone are checked. Only a theory with
    negated bodies reads the overestimates here.
    """
    numbering = theory.numbering
    woken: list = []
    if child.interp_bits != state.interp_bits:
        woken += numbering.pos_users[numbering.index[outcome]]
    if numbering.negated and child.over_bits is not state.over_bits:
        lost = state.over_bits & ~child.over_bits & numbering.negated
        for i in bit_positions(lost):
            woken += numbering.neg_users[i]
    rest = ready.copy()
    rest.remove(pos)
    if not woken:
        return rest
    new = [i for i in set(woken) if _applicable(numbering, child, i)]
    return sorted(rest + new) if new else rest


def _policy_rank(theory: Theory, policy: Sequence[str] | None) -> list[int] | None:
    """Rank of each law position under the policy; None for file order."""
    if policy is None:
        return None
    rank: dict = {}
    for label in policy:
        theory.law(label)  # raises UnknownLabelError for bogus labels
        rank.setdefault(label, len(rank))  # a repeated label keeps its first rank
    base = len(rank)
    return [rank.get(law.label, base + i) for i, law in enumerate(theory.laws)]


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
    built: dict = {}  # (interp_bits, fired_bits) -> TreeNode
    # A state is pushed with its applicable laws' positions and plan
    # None; once its children are pushed above it, plan holds the fired
    # law and (outcome, prob, child) triples.
    stack: list = [(root, root_ready, None)]
    while stack:
        state, ready, plan = stack[-1]
        if plan is None:
            key = state.interp_bits, state.fired_bits
            if key in built:
                stack.pop()
                continue
            if not ready:
                stack.pop()
                built[key] = TreeNode(state, None, ())
                continue
            # ready is in theory order, so file order takes its first law.
            pos = ready[0] if rank is None else min(ready, key=rank.__getitem__)
            law = laws[pos]
            children = [(outcome, prob, fire(theory, state, law, outcome)) for outcome, prob in law.outcomes.pairs]
            stack[-1] = (state, ready, (law, children))
            stack.extend(
                (child, _next_ready(theory, state, ready, pos, outcome, child), None)
                for outcome, _, child in children
            )
        else:
            stack.pop()
            law, children = plan
            edges = tuple(
                TreeEdge(outcome, prob, built[child.interp_bits, child.fired_bits])
                for outcome, prob, child in children
            )
            built[state.interp_bits, state.fired_bits] = TreeNode(state, law, edges)
    return ExecutionTree(theory, built[root.interp_bits, root.fired_bits])


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
        target = theory.numbering.atom_mask(target)
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
            interp = state.interp_bits
            # Prune on an atom outside the target, or on a missing target
            # atom that can no longer be caused; the overestimate is read
            # only while target atoms are missing.
            if target is None or not (interp & ~target or target & ~interp and target & ~state.over_bits):
                if readies[-1]:
                    steps = [(pos, outcome) for pos in readies[-1] for outcome, _ in laws[pos].outcomes.pairs]
                elif target is None or interp == target:
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


def replay_story(theory: Theory, story: "StoryDocument") -> Branch:
    """Replay a parsed story into a full branch with all intermediate states."""
    state = initial_state(theory, story.context)
    states = [state]
    events = []
    for step in story.steps:
        law = theory.law(step.label)
        status = law_status(theory, state, law)
        if status is not LawStatus.APPLICABLE:
            where = f" (line {step.line})" if step.line else ""
            raise IllegalStepError(
                f"law {step.label} is {status.value} at this point in the story{where}"
            )
        state = fire(theory, state, law, step.outcome)
        states.append(state)
        events.append(Event(step.label, step.outcome))
    return Branch(tuple(states), tuple(events))


def _fold(tree: ExecutionTree, root_mass, shares) -> dict:
    """Leaf mass by final ``interp_bits``, masks over the tree theory's
    numbering, for ``root_mass`` at the root. ``shares(node, mass)``
    gives what each of an internal node's edges passes on, in edge
    order. The fold goes level by level, visiting each shared node
    once: every edge fires one law, so all paths to a node have the
    same length and a node's mass is complete once the level above it
    is done."""
    by_bits: dict = {}
    level = {id(tree.root): (tree.root, root_mass)}
    while level:
        below: dict = {}
        for node, mass in level.values():
            if not node.edges:
                interp = node.state.interp_bits
                seen = by_bits.get(interp)
                by_bits[interp] = mass if seen is None else seen + mass
                continue
            for edge, share in zip(node.edges, shares(node, mass)):
                child = edge.child
                seen = below.get(id(child))
                below[id(child)] = (child, share if seen is None else seen[1] + share)
        level = below
    return by_bits


def _probability_shares(node: TreeNode, mass: Fraction) -> list[Fraction]:
    return [mass * edge.prob for edge in node.edges]


def _weight_shares(node: TreeNode, mass: int) -> list[int]:
    # Exact: mass carries the scale of every law not fired above node.
    table = node.law.outcomes
    scale = table.scale
    return [mass * weight // scale for weight in table.weights]


def distribution_bits(tree: ExecutionTree) -> dict[int, Probability]:
    """Leaf probability mass by final ``interp_bits``, as exact ratios."""
    return _fold(tree, _ONE, _probability_shares)


def distribution(tree: ExecutionTree) -> Distribution:
    """Aggregate leaf probability mass by final interpretation."""
    numbering = tree.theory.numbering
    return {numbering.atom_set(interp): mass for interp, mass in distribution_bits(tree).items()}


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
    atoms = formula_atoms(formula)
    check_known(atoms, vocab, "formula")
    # A final state is judged on the formula's own atoms only, once per pattern.
    numbering = theory.numbering
    bits = [(atom, numbering.bit(atom)) for atom in atoms]
    relevant = sum(bit for _, bit in bits)
    holds: dict = {}  # interp_bits & relevant -> bool
    # Masses are integers over scale, the product of every law's scale,
    # so the fold and the sum below make no Fraction. The tree comes from
    # the module's build_tree binding, which bench/tracer.py wraps to
    # count nodes (tests/test_bench_contract.py).
    scale = prod([law.outcomes.scale for law in theory.laws])
    total = 0
    for interp, mass in _fold(build_tree(theory, context), scale, _weight_shares).items():
        seen = interp & relevant
        value = holds.get(seen)
        if value is None:
            true = frozenset([atom for atom, bit in bits if seen & bit])
            value = holds[seen] = eval_formula(formula, true)
        if value:
            total += mass
    return Fraction(total, scale)
