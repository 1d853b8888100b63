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
Every entry point that takes a state passes it through ``_adopt``,
which converts a state of another theory object through those views.

Successor states are incremental, and the overestimate is computed on
demand. One stepping kernel, ``_step``, makes every successor: it ORs
the outcome's atom bit and the law's bit into its parent's masks. A
state's overestimate is the fixpoint of its own masks, computed the
first time something reads it and then stored. A successor never takes
its parent's; only ``_adopt`` carries one over, from the same state of
another theory object. Pickling or copying a state carries what it has
stored, or nothing. Only a negated body, the target cut of
``enumerate_branches`` and the causation queries read it: a law without
negated body is applicable once its positive body is true. The public
``fire`` checks that the theory holds the law, that the law is
applicable and that its outcome table knows the outcome, then calls the
kernel; ``replay_story`` goes through it, since a story is user input.
The tree builder and the branch walker call the kernel unchecked, as
their moves come from their ready lists and the laws' outcome tables.
They carry each state's applicable laws along and, after a step, recheck
only the laws that the numbering's ``pos_users`` and ``neg_users`` tie
to the new atom or to atoms that left the overestimate. ``build_tree``
goes level by level and keys each state by its ``(interp_bits,
fired_bits)``, computed from its parent's masks, so each distinct state
is stepped into once: 2k+1 nodes and 2k steps on k thrown throwers.
``enumerate_branches`` keys its states the same way and makes each
distinct state's successors once per call, shared by every path through
it: 2k(2^k − 1) steps on k thrown throwers, where a step per path took
632 at k=4. ``overestimate`` and ``applicable_laws`` compute from
scratch, as the walkers do only for the root's ready list. The fixpoint
``overestimate`` works on masks only, in and out; a state's ``over`` is
its one frozenset view.

Two walkers read a tree. ``ExecutionTree.walk`` yields every node of
the full tree, path by path, in pre-order; ``nodes``,
``leaves_with_mass`` and both renderings in ``textio`` read it. ``_fold``
sums the leaf masses per final state, level by level, visiting each
shared tree node once, with two kinds of mass. ``distribution_bits``,
which ``distribution`` and ``cplogic tree`` read, passes exact
``Fraction`` masses. ``prob_formula`` passes integers over the product
of every law's scale (the lcm of its outcome denominators, in the law's
``outcomes`` table), so the only ``Fraction`` it makes is its answer.
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
    field_repr,
    formula_atoms,
    setfield,
)
from .errors import (
    IllegalStepError,
    InvalidOutcomeError,
    NonExogenousInContextError,
    NotApplicableError,
    UnknownLabelError,
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
    and never by the engine itself. Equality, hashing and ``repr`` go
    by the three views. Equality compares the masks instead when both
    numberings have the same ``key``, as the views then agree exactly
    when the masks do, and an overestimate that neither state has
    stored yet would be the same fixpoint of equal masks. Pickling and
    copying keep the masks, and the overestimate only if it is stored,
    so they run no fixpoint.
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
        if self.theory.numbering.same_key(other.theory.numbering):
            if self.interp_bits != other.interp_bits or self.fired_bits != other.fired_bits:
                return False
            return self._over is None and other._over is None or self.over_bits == other.over_bits
        return (self.interp, self.fired, self.over) == (other.interp, other.fired, other.over)

    def __hash__(self):
        return hash((self.interp, self.fired, self.over))

    def __repr__(self):
        return (f"State(interp={field_repr(self.interp)}, fired={field_repr(self.fired)}, "
                f"over={field_repr(self.over)})")

    def __reduce__(self):
        return State, (self.theory, self.interp_bits, self.fired_bits, self._over)


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

    def __eq__(self, other):
        # Field by field like any record, but over an explicit stack of
        # node pairs, each pair compared once: no recursion limit, and
        # two equal DAGs compare in time linear in their distinct nodes.
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        seen = set()
        while stack:
            a, b = stack.pop()
            pair = (id(a), id(b))
            if a is b or pair in seen:
                continue
            seen.add(pair)
            if (a.__class__ is not b.__class__ or a.state != b.state or a.law != b.law
                    or len(a.edges) != len(b.edges)):
                return False
            for x, y in zip(a.edges, b.edges):
                if x.outcome != y.outcome or x.prob != y.prob:
                    return False
                stack.append((x.child, y.child))
        return True

    def __hash__(self):
        # Equal nodes have equal states and laws. Hashing the edges too
        # would walk every path below the node, recursively.
        return hash((self.state, self.law))

    def __repr__(self):
        # Record's text, over an explicit stack of text and nodes still
        # to render: no recursion limit.
        parts: list = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            todo = [f"TreeNode(state={item.state!r}, law={item.law!r}, edges=("]
            for k, edge in enumerate(item.edges):
                todo += [", " if k else "", f"TreeEdge(outcome={edge.outcome!r}, prob={edge.prob!r}, child=",
                         edge.child, ")"]
            todo.append(",))" if len(item.edges) == 1 else "))")
            stack += reversed(todo)
        return "".join(parts)

    def __reduce__(self):
        # The DAG below the node as a list, children before parents and
        # each node once, with each edge's child as an index into it:
        # pickling and copying it recurse no deeper than one entry.
        index: dict = {}
        flat: list = []
        stack = [self]
        while stack:
            node = stack[-1]
            if id(node) in index:
                stack.pop()
                continue
            todo = [edge.child for edge in node.edges if id(edge.child) not in index]
            if todo:
                stack += todo
                continue
            stack.pop()
            index[id(node)] = len(flat)
            flat.append((node.state, node.law, tuple([
                (edge.outcome, edge.prob, index[id(edge.child)]) for edge in node.edges
            ])))
        return _rebuild_node, (flat,)

    @property
    def is_leaf(self) -> bool:
        return not self.edges


def _rebuild_node(flat: list) -> TreeNode:
    """The last node of ``TreeNode.__reduce__``'s list, in one pass."""
    nodes: list = []
    for state, law, edges in flat:
        nodes.append(TreeNode(state, law, tuple([
            TreeEdge(outcome, prob, nodes[i]) for outcome, prob, i in edges
        ])))
    return nodes[-1]


class ExecutionTree(Record):
    __slots__ = ("theory", "root")

    def __init__(self, theory: Theory, root: TreeNode):
        setfield(self, "theory", theory)
        setfield(self, "root", root)

    def walk(self) -> Iterator[tuple[int, TreeNode | None, TreeEdge | None, TreeNode]]:
        """Every node of the full tree, path by path, in pre-order, as
        ``(depth, parent, edge, node)``; ``edge`` leads from ``parent``
        into ``node``, both None at the root. Explicit stack: no recursion limit."""
        stack: list = [(0, None, None, self.root)]
        while stack:
            item = stack.pop()
            yield item
            depth, _, _, node = item
            for edge in reversed(node.edges):
                stack.append((depth + 1, node, edge, edge.child))

    def nodes(self) -> Iterator[TreeNode]:
        return (node for _, _, _, node in self.walk())

    def leaves_with_mass(self) -> Iterator[tuple[TreeNode, Probability]]:
        """Leaves paired with the product of edge probabilities to them."""
        masses: list = []  # masses[d]: the path's mass at depth d
        for depth, _, edge, node in self.walk():
            mass = masses[depth - 1] * edge.prob if depth else _ONE
            if node.edges:
                del masses[depth:]
                masses.append(mass)
            else:
                yield node, mass


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
    """``state`` as a state of ``theory``: itself when it already is one,
    otherwise a state of another theory object, converted through its views."""
    if state.theory is theory:
        return state
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


def _position(theory: Theory, law: CPLaw) -> int:
    """Position of ``law`` in ``theory``: UnknownLabelError unless the
    theory holds a law equal to it under its label."""
    held = theory.law(law.label)
    if held is not law and held != law:
        raise UnknownLabelError(f"law {law.label!r} differs from the theory's law of that label")
    return theory.numbering.position[law.label]


def law_status(theory: Theory, state: State, law: CPLaw) -> LawStatus:
    """Classify a law as fired, applicable, pending or impossible.

    Impossible means the body can never hold again: a positive
    precondition left the overestimate, or a negated one became true.
    Applicable requires the positive preconditions to be true now and
    every negated atom to be out of the overestimate for good.
    """
    i = _position(theory, law)
    state = _adopt(theory, state)
    numbering = theory.numbering
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
    the interpretation unchanged but still consumes the law. The law
    must be one the theory holds, applicable in ``state``, and the
    outcome one of its own; the step itself is ``_step``.
    """
    i = _position(theory, law)
    state = _adopt(theory, state)
    if not _applicable(theory.numbering, state, i):
        raise NotApplicableError(
            f"law {law.label} is {law_status(theory, state, law).value}, not applicable"
        )
    if outcome is NO_EFFECT:
        if law.outcomes.prob(outcome) is None:
            raise InvalidOutcomeError(f"law {law.label} has no residual probability for a no-effect firing")
    elif not isinstance(outcome, Atom) or law.outcomes.prob(outcome) is None:
        raise InvalidOutcomeError(f"{outcome} is not a head atom of law {law.label}")
    return _step(theory, state, i, outcome)


def _step(theory: Theory, state: State, i: int, outcome) -> State:
    """The successor of ``state``, a state of ``theory``, after law ``i``
    fired with ``outcome``, unchecked: the law must be applicable there
    and the outcome one of its table's. ``fire`` checks both; the
    walkers step only along their ready lists and the laws' tables.
    ``Numbering.bit`` is 0 for NO_EFFECT, which realizes no atom."""
    return State(theory, state.interp_bits | theory.numbering.bit(outcome), state.fired_bits | 1 << i)


def applicable_laws(theory: Theory, state: State) -> list[CPLaw]:
    """The laws applicable in ``state``, in theory order, from scratch:
    the tests' reference for the ready lists the walkers carry.
    ``bench/tracer.py`` counts its calls by this name, and
    ``tests/test_bench_contract.py`` checks that the name is bound."""
    state = _adopt(theory, state)
    numbering = theory.numbering
    return [law for i, law in enumerate(theory.laws) if _applicable(numbering, state, i)]


def _root(theory: Theory, context: AbstractSet[Atom]) -> tuple[State, list[int]]:
    """The initial state and the positions of its applicable laws."""
    root = initial_state(theory, context)
    numbering = theory.numbering
    return root, [i for i in range(len(theory.laws)) if _applicable(numbering, root, i)]


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
    if numbering.negated and child.over_bits != state.over_bits:
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
    walk (``ExecutionTree.walk``) sees the full tree. Every step fires
    one law, so equal states lie on the same level. The builder goes
    down level by level, stepping into each distinct child key of the
    next level once, then makes the internal nodes bottom-up, deepest
    level first. It does not recurse, so depth is not bounded by
    Python's recursion limit.
    """
    rank = _policy_rank(theory, policy)
    laws = theory.laws
    bit = theory.numbering.bit
    # Per law, (outcome, prob, bit) along its table; a child's key ORs
    # the bit (0 for NO_EFFECT) into its parent's interp_bits.
    moves = [[(outcome, prob, bit(outcome)) for outcome, prob in law.outcomes.pairs] for law in laws]
    root, ready = _root(theory, context)
    root_key = root.interp_bits, root.fired_bits
    # levels[d]: (interp_bits, fired_bits) -> (state, ready) of each
    # distinct state d steps down, until it becomes a leaf TreeNode or
    # the (state, pos) of the law that fires there.
    levels = []
    level = {root_key: (root, ready)}
    while level:
        levels.append(level)
        below: dict = {}
        for key, (state, ready) in level.items():
            if not ready:
                level[key] = TreeNode(state, None, ())
                continue
            # ready is in theory order, so file order takes its first law.
            pos = ready[0] if rank is None else min(ready, key=rank.__getitem__)
            interp = state.interp_bits
            fired = state.fired_bits | 1 << pos
            for outcome, _, b in moves[pos]:
                if (interp | b, fired) not in below:
                    child = _step(theory, state, pos, outcome)
                    ready_below = _next_ready(theory, state, ready, pos, outcome, child)
                    # Keyed by the child's own (equal) masks, sharing their ints.
                    below[child.interp_bits, child.fired_bits] = child, ready_below
            level[key] = state, pos
        level = below
    # Deepest level first, so that a node's children, one level down, are
    # made before it; the deepest level holds leaves only.
    while levels:
        level = levels.pop()
        for key, entry in level.items():
            if isinstance(entry, tuple):
                state, pos = entry
                interp = state.interp_bits
                fired = state.fired_bits | 1 << pos
                level[key] = TreeNode(state, laws[pos], tuple([
                    TreeEdge(outcome, prob, below[interp | b, fired]) for outcome, prob, b in moves[pos]
                ]))
        below = level
    return ExecutionTree(theory, below[root_key])


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

    A state's successors depend only on its ``(interp_bits,
    fired_bits)``, so the walk makes those of each distinct state once,
    all at once, and every path through the state shares them: branches
    share their ``State`` and ``Event`` objects (one event per law and
    outcome), each in its own ``Branch``.
    """
    if target is not None:
        target = frozenset(target)
        check_known(target, theory.vocabulary, "target")
        target = theory.numbering.atom_mask(target)
    root, root_ready = _root(theory, context)
    # Per law, (outcome, event) along its table: one Event per move.
    law_moves = [[(outcome, Event(law.label, outcome)) for outcome, _ in law.outcomes.pairs]
                 for law in theory.laws]

    def expand(state: State, ready: list[int]) -> tuple[bool, list]:
        """Whether a branch ends at ``state``, and its successors: the
        ``(child, child's ready list, event)`` of each move, in walk
        order; none where the walk prunes or a leaf is reached."""
        interp = state.interp_bits
        # Prune on an atom outside the target, or on a missing target
        # atom that can no longer be caused; the overestimate is read
        # only while target atoms are missing.
        if target is not None and (interp & ~target or target & ~interp and target & ~state.over_bits):
            return False, []
        if not ready:
            return target is None or interp == target, []
        successors = []
        for pos in ready:
            for outcome, event in law_moves[pos]:
                child = _step(theory, state, pos, outcome)
                successors.append((child, _next_ready(theory, state, ready, pos, outcome, child), event))
        return False, successors

    def walk() -> Iterator[Branch]:
        # expanded maps each distinct state's (interp_bits, fired_bits)
        # to expand()'s answer. Explicit stack, so depth is not bounded
        # by Python's recursion limit: moves[i] iterates the untried
        # successors of states[i], and events[i] leads from states[i]
        # to states[i + 1].
        expanded: dict = {}
        states = [root]
        events: list[Event] = []
        moves: list = []
        state, ready = root, root_ready
        while True:
            key = state.interp_bits, state.fired_bits
            entry = expanded.get(key)
            if entry is None:
                entry = expanded[key] = expand(state, ready)
            ends, successors = entry
            if ends:
                yield Branch(tuple(states), tuple(events))
            moves.append(iter(successors))
            while (move := next(moves[-1], None)) is None:
                moves.pop()
                if not moves:
                    return
                states.pop()
                events.pop()
            state, ready, event = move
            states.append(state)
            events.append(event)

    return walk()


def replay_story(theory: Theory, story: "StoryDocument") -> Branch:
    """Replay a parsed story into a full branch with all intermediate states."""
    state = initial_state(theory, story.context)
    states = [state]
    events = []
    for step in story.steps:
        law = theory.law(step.label)
        try:
            state = fire(theory, state, law, step.outcome)
        except NotApplicableError:
            status = law_status(theory, state, law)
            where = f" (line {step.line})" if step.line else ""
            raise IllegalStepError(
                f"law {step.label} is {status.value} at this point in the story{where}"
            ) from None
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
    # One level's nodes and masses, both keyed by the node's id.
    nodes = {id(tree.root): tree.root}
    masses = {id(tree.root): root_mass}
    while nodes:
        below_nodes: dict = {}
        below_masses: dict = {}
        for key, node in nodes.items():
            mass = masses[key]
            if not node.edges:
                interp = node.state.interp_bits
                seen = by_bits.get(interp)
                by_bits[interp] = mass if seen is None else seen + mass
                continue
            for edge, share in zip(node.edges, shares(node, mass)):
                child = edge.child
                child_id = id(child)
                seen = below_masses.get(child_id)
                if seen is None:
                    below_nodes[child_id] = child
                    below_masses[child_id] = share
                else:
                    below_masses[child_id] = seen + share
        nodes, masses = below_nodes, below_masses
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
