"""Core domain types for ground CP-logic theories.

Atoms, literals, annotated heads, laws, theories and propositional
formulas, plus structural validation. Every value is immutable after
construction and safe to share; validation is a pure function. An atom
is a validated name string, so there is no shared table behind it.

The package's value types are ``Record`` subclasses: slotted classes
whose fields are their ``__slots__``, with equality, hashing, ``repr``
and pickling by field value. Each writes its fields once in its own
``__init__`` through ``setfield``; after that, assignment and deletion
raise ``AttributeError``.
"""

from __future__ import annotations

import enum
import re
from collections import deque
from collections.abc import Iterable, Set as AbstractSet
from decimal import Decimal
from fractions import Fraction
from math import lcm
from operator import attrgetter

from .errors import UnknownAtomError, UnknownLabelError, ValidationError

# Exact rational probability. Fraction keeps values reduced to lowest
# terms with a positive denominator, which the engine's exact zero tests
# depend on; no floats appear anywhere in the semantics.
Probability = Fraction


def fraction_text(value: Fraction) -> str:
    """``str(value)``, however many digits it has."""
    try:
        return str(value)
    except ValueError:  # past sys.get_int_max_str_digits(); Decimal converts exactly
        if value.denominator == 1:
            return str(Decimal(value.numerator))
        return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


class compute_once:
    """A read-only attribute computed on first access and then stored.

    Like ``functools.cached_property`` without its lock (which Python
    3.11 takes on every first access): the value is a pure function of
    an immutable object, so threads that race on a fresh object each
    compute an equal value and the last store wins.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        # A non-data descriptor: once stored, the instance attribute
        # shadows it. Writing __dict__ directly also works on records,
        # whose __setattr__ refuses every write.
        value = instance.__dict__[self.name] = self.func(instance)
        return value


#: Writes one field in a record's ``__init__``, past the refusing
#: ``Record.__setattr__``.
setfield = object.__setattr__


class Record:
    """Base of the immutable value types: fields by value, no writes.

    A subclass names its fields in ``__slots__`` (plus ``"__dict__"``
    when it has ``compute_once`` attributes) and stores each of them in
    its own ``__init__`` with ``setfield``; the positional order of
    ``__init__`` is the order of the slots, which pickling relies on.
    Two records are equal when they are of the same class and their
    fields are equal; the hash is that of the field values, and
    ``repr`` reads ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields = fields = cls._fields + tuple(name for name in own if name != "__dict__")
        # attrgetter of two or more names returns a tuple, in C.
        cls._values = staticmethod(
            attrgetter(*fields) if len(fields) > 1
            else lambda record: tuple([getattr(record, name) for name in fields])
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)


_ATOM_NAME = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

#: Words with grammar meaning; they can never name an atom.
RESERVED_WORDS = frozenset({"exogenous", "context", "none", "true", "false"})


class Atom(str):
    """A propositional atom: its name, as a validated ``str``.

    Atoms are plain values, not interned: two atoms with the same name
    are equal and hash alike (str's own cached hash), and an atom equals
    its name string. Compare atoms with ``==``, never ``is``.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Atom":
        if not isinstance(name, str) or not _ATOM_NAME.match(name):
            raise ValueError(
                f"invalid atom name {name!r}: expected a lowercase-leading identifier"
            )
        if name in RESERVED_WORDS:
            raise ValueError(f"invalid atom name {name!r}: reserved word")
        return str.__new__(cls, name)

    #: The name as a plain ``str``.
    name = property(str.__str__)

    def __repr__(self) -> str:
        return f"Atom({str.__repr__(self)})"


#: An interpretation: the set of true atoms, everything else false.
Interpretation = frozenset


class NoEffect(enum.Enum):
    """Sentinel outcome for an event that fires without visible effect."""

    NO_EFFECT = "none"

    def __repr__(self) -> str:
        return "none"

    __str__ = __repr__


NO_EFFECT = NoEffect.NO_EFFECT

#: What a fired event realized: a head atom, or nothing visible.
Outcome = Atom | NoEffect


class Literal(Record):
    """An atom or its negation, as used in law bodies and cause/effect queries."""

    __slots__ = ("atom", "positive")

    def __init__(self, atom: Atom, positive: bool = True):
        setfield(self, "atom", atom)
        setfield(self, "positive", positive)

    def holds_in(self, interp: AbstractSet[Atom]) -> bool:
        return (self.atom in interp) == self.positive

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __str__(self) -> str:
        return self.atom.name if self.positive else f"~{self.atom.name}"


class HeadAlternative(Record):
    """One possible outcome of a law's event, with its exact probability.

    ``symbolic`` marks probabilities that were written as ``*`` in the
    source: unknown values encoded as 1/2. Causation verdicts only ever
    look at whether probability mass is zero, so the placeholder value
    does not influence them.
    """

    __slots__ = ("atom", "prob", "symbolic")

    def __init__(self, atom: Atom, prob: Probability, symbolic: bool = False):
        setfield(self, "atom", atom)
        setfield(self, "prob", prob)
        setfield(self, "symbolic", symbolic)


class OutcomeTable(Record):
    """Every possible outcome of one law's event, with its probability.

    ``pairs`` lists ``(outcome, probability)`` in head order, followed
    by ``(NO_EFFECT, residual)`` when the head sums to less than one.
    ``scale`` is the least common multiple of those probabilities'
    denominators, and ``weights`` their integer numerators over it:
    each probability is ``weight / scale``.
    """

    __slots__ = ("pairs", "scale", "weights")

    def __init__(self, pairs: tuple[tuple[Outcome, Probability], ...], scale: int, weights: tuple[int, ...]):
        setfield(self, "pairs", pairs)
        setfield(self, "scale", scale)
        setfield(self, "weights", weights)

    @property
    def allows_no_effect(self) -> bool:
        return self.pairs[-1][0] is NO_EFFECT


class CPLaw(Record):
    """A causal probabilistic law.

    When the body holds, a one-shot event fires and realizes at most one
    head alternative. If the head probabilities sum to less than one,
    the event may also fire without any visible effect. ``label`` is
    None until validation assigns one.
    """

    __slots__ = ("head", "body", "label", "__dict__")

    def __init__(self, head: tuple[HeadAlternative, ...], body: tuple[Literal, ...] = (),
                 label: str | None = None):
        if not head:
            raise ValueError("a law needs at least one head alternative")
        setfield(self, "head", head)
        setfield(self, "body", body)
        setfield(self, "label", label)

    @compute_once
    def head_atoms(self) -> frozenset[Atom]:
        return frozenset(alt.atom for alt in self.head)

    @compute_once
    def head_sum(self) -> Probability:
        if len(self.head) == 1:
            return self.head[0].prob
        return sum((alt.prob for alt in self.head), Fraction(0))

    @compute_once
    def no_effect_prob(self) -> Probability:
        # 1 - n/d as (d - n)/d: cheaper than Fraction subtraction.
        total = self.head_sum
        return Fraction(total.denominator - total.numerator, total.denominator)

    @compute_once
    def outcomes(self) -> OutcomeTable:
        """The event's outcomes, as exact ratios and as integer weights."""
        pairs = [(alt.atom, alt.prob) for alt in self.head]
        residual = self.no_effect_prob
        if residual.numerator > 0:  # an int test; Fraction > 0 goes through numbers.Rational
            pairs.append((NO_EFFECT, residual))
        scale = lcm(*[prob.denominator for _, prob in pairs])
        weights = tuple([prob.numerator * (scale // prob.denominator) for _, prob in pairs])
        return OutcomeTable(tuple(pairs), scale, weights)

    @compute_once
    def positive_body(self) -> frozenset[Atom]:
        return frozenset(lit.atom for lit in self.body if lit.positive)

    @compute_once
    def negative_body(self) -> frozenset[Atom]:
        return frozenset(lit.atom for lit in self.body if not lit.positive)

    def with_label(self, label: str) -> "CPLaw":
        return CPLaw(self.head, self.body, label)


def bit_positions(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative int, ascending."""
    digits = bin(mask)[:1:-1]  # least significant bit first, no "0b"
    return [i for i, digit in enumerate(digits) if digit == "1"]


class Numbering:
    """One theory's atoms and laws as bit positions of plain ``int`` masks.

    Atom ``atoms[i]`` is bit i of an atom mask, numbered in order of
    first appearance (exogenous atoms by name, then law by law, head
    before body); law ``i`` of ``Theory.laws`` is bit i of a law mask, and
    ``pos``, ``neg`` and ``head`` hold its positive body, negated body
    and head atoms as masks. ``pos_users[i]`` and ``neg_users[i]`` list,
    in ascending order and once each, the laws whose body uses atom i
    positively or negated; the lists are shared, so read them only.
    Masks mean something only within the numbering that made them.
    """

    __slots__ = ("atoms", "index", "labels", "position", "pos", "neg", "head", "negated", "pos_users", "neg_users")

    def __init__(self, theory: "Theory"):
        index: dict = {}
        pos_users: list = []
        neg_users: list = []

        def number(atom: Atom) -> int:
            i = index.get(atom)
            if i is None:
                i = index[atom] = len(index)
                pos_users.append([])
                neg_users.append([])
            return i

        # By name, not in set order: str hashes are randomized per
        # process, so a theory unpickled in another process iterates its
        # exogenous set differently, and its states' masks must mean the
        # same atoms.
        for atom in sorted(theory.exogenous):
            number(atom)
        head: list = []
        pos: list = []
        neg: list = []
        negated = 0
        for k, law in enumerate(theory.laws):
            h = p = q = 0
            for alt in law.head:
                h |= 1 << number(alt.atom)
            for lit in law.body:
                i = number(lit.atom)
                bit = 1 << i
                if lit.positive:
                    if not p & bit:
                        p |= bit
                        pos_users[i].append(k)
                elif not q & bit:
                    q |= bit
                    neg_users[i].append(k)
            head.append(h)
            pos.append(p)
            neg.append(q)
            negated |= q
        labels = [law.label for law in theory.laws]
        self.atoms = list(index)
        self.index = index
        self.labels = labels
        self.position = {label: i for i, label in enumerate(labels)}
        self.head = head
        self.pos = pos
        self.neg = neg
        self.negated = negated  # atoms that some body negates
        self.pos_users = pos_users
        self.neg_users = neg_users

    def atom_mask(self, atoms: Iterable[Atom]) -> int:
        """Mask of the given atoms; atoms outside the numbering are left out."""
        mask = 0
        for atom in atoms:
            i = self.index.get(atom)
            if i is not None:
                mask |= 1 << i
        return mask

    def bit(self, atom: Atom) -> int:
        """The atom's one-bit mask, or 0 for an atom outside the numbering."""
        i = self.index.get(atom)
        return 0 if i is None else 1 << i

    def law_mask(self, labels: Iterable[str]) -> int:
        """Mask of the laws with the given labels; unknown labels are left out."""
        mask = 0
        for label in labels:
            i = self.position.get(label)
            if i is not None:
                mask |= 1 << i
        return mask

    def atom_set(self, mask: int) -> frozenset:
        atoms = self.atoms
        return frozenset([atoms[i] for i in bit_positions(mask)])

    def label_set(self, mask: int) -> frozenset:
        labels = self.labels
        return frozenset([labels[i] for i in bit_positions(mask)])


class Theory(Record):
    """A finite, ordered set of laws plus the declared exogenous atoms."""

    __slots__ = ("laws", "exogenous", "__dict__")

    def __init__(self, laws: tuple[CPLaw, ...] = (), exogenous: frozenset[Atom] = frozenset()):
        setfield(self, "laws", laws)
        setfield(self, "exogenous", exogenous)

    @compute_once
    def vocabulary(self) -> frozenset[Atom]:
        """The exogenous, head and body atoms: exactly those the numbering numbers."""
        return frozenset(self.numbering.index)

    @compute_once
    def endogenous(self) -> frozenset[Atom]:
        return self.vocabulary - self.exogenous

    @compute_once
    def _by_label(self) -> dict:
        return {law.label: law for law in self.laws if law.label is not None}

    def law(self, label: str) -> CPLaw:
        try:
            return self._by_label[label]
        except KeyError:
            raise UnknownLabelError(f"unknown law label {label!r}") from None

    @compute_once
    def numbering(self) -> "Numbering":
        """Bit positions of the atoms and laws, for the engine's states."""
        return Numbering(self)

    @compute_once
    def has_symbolic_probabilities(self) -> bool:
        return any(alt.symbolic for law in self.laws for alt in law.head)


# ---------------------------------------------------------------------------
# Propositional formulas


class Formula(Record):
    """Base class for propositional queries over a theory's vocabulary."""

    __slots__ = ()


class FormulaAtom(Formula):
    __slots__ = ("atom",)

    def __init__(self, atom: Atom):
        setfield(self, "atom", atom)


class Negation(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        setfield(self, "operand", operand)


class Conjunction(Formula):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Formula, ...]):
        setfield(self, "parts", parts)


class Disjunction(Formula):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Formula, ...]):
        setfield(self, "parts", parts)


class Constant(Formula):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        setfield(self, "value", value)


TRUE = Constant(True)
FALSE = Constant(False)


def literal_formula(lit: Literal) -> Formula:
    f: Formula = FormulaAtom(lit.atom)
    return f if lit.positive else Negation(f)


def formula_atoms(formula: Formula) -> frozenset[Atom]:
    atoms: set[Atom] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, FormulaAtom):
            atoms.add(node.atom)
        elif isinstance(node, Negation):
            stack.append(node.operand)
        elif isinstance(node, (Conjunction, Disjunction)):
            stack.extend(node.parts)
    return frozenset(atoms)


def eval_formula(
    formula: Formula,
    interp: AbstractSet[Atom],
    vocabulary: AbstractSet[Atom] | None = None,
) -> bool:
    """Two-valued evaluation: atoms outside ``interp`` are false.

    When a vocabulary is given, formula atoms outside it raise
    UnknownAtomError instead of silently evaluating to false.
    """
    if vocabulary is not None:
        check_known(formula_atoms(formula), vocabulary, "formula")
    return _eval(formula, interp)


def check_known(atoms: AbstractSet[Atom], vocabulary: AbstractSet[Atom], what: str) -> None:
    """Raise UnknownAtomError naming the atoms outside the vocabulary."""
    missing = atoms - vocabulary
    if missing:
        names = ", ".join(sorted(missing))
        raise UnknownAtomError(f"{what} mentions unknown atoms: {names}")


def _eval(formula: Formula, interp: AbstractSet[Atom]) -> bool:
    if isinstance(formula, FormulaAtom):
        return formula.atom in interp
    if isinstance(formula, Negation):
        return not _eval(formula.operand, interp)
    if isinstance(formula, Conjunction):
        return all(_eval(part, interp) for part in formula.parts)
    if isinstance(formula, Disjunction):
        return any(_eval(part, interp) for part in formula.parts)
    if isinstance(formula, Constant):
        return formula.value
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Structural validation

ZERO_PROBABILITY = "zero-probability"
HEAD_SUM_EXCEEDS_ONE = "head-sum-exceeds-one"
DUPLICATE_HEAD_ATOM = "duplicate-head-atom"
EXOGENOUS_IN_HEAD = "exogenous-in-head"
DOUBLE_NEGATION_LOOP = "double-negation-loop"
DUPLICATE_LABEL = "duplicate-label"
CONTRADICTORY_BODY = "contradictory-body"


class ValidationIssue(Record):
    """A single structural problem found while validating a theory."""

    __slots__ = ("code", "message", "law_index", "witness")

    def __init__(self, code: str, message: str, law_index: int | None = None,
                 witness: tuple[Atom, ...] = ()):
        setfield(self, "code", code)
        setfield(self, "message", message)
        setfield(self, "law_index", law_index)
        setfield(self, "witness", witness)


def validate_theory(candidate: Theory) -> Theory:
    """Check every structural invariant and assign missing labels.

    Unlabeled laws get deterministic labels r1..rn by position. Returns
    the input object itself when it is already fully labeled and valid,
    so validation is idempotent. Raises ValidationError carrying the
    full list of problems found.
    """
    issues: list[ValidationIssue] = []

    for idx, law in enumerate(candidate.laws):
        where = f"law {idx + 1}" + (f" ({law.label})" if law.label else "")
        seen: set[Atom] = set()
        for alt in law.head:
            if alt.prob <= 0:
                issues.append(ValidationIssue(
                    ZERO_PROBABILITY,
                    f"{where}: head probability for {alt.atom} must be positive",
                    idx,
                ))
            if alt.atom in seen:
                issues.append(ValidationIssue(
                    DUPLICATE_HEAD_ATOM,
                    f"{where}: atom {alt.atom} appears twice in the head",
                    idx,
                ))
            seen.add(alt.atom)
            if alt.atom in candidate.exogenous:
                issues.append(ValidationIssue(
                    EXOGENOUS_IN_HEAD,
                    f"{where}: exogenous atom {alt.atom} cannot be caused",
                    idx,
                ))
        if law.head_sum > 1:
            issues.append(ValidationIssue(
                HEAD_SUM_EXCEEDS_ONE,
                f"{where}: head probabilities sum to {fraction_text(law.head_sum)} > 1",
                idx,
            ))
        contradictory = law.positive_body & law.negative_body
        for atom in sorted(contradictory):
            issues.append(ValidationIssue(
                CONTRADICTORY_BODY,
                f"{where}: body uses both {atom} and ~{atom}",
                idx,
            ))

    explicit: dict[str, int] = {}
    for idx, law in enumerate(candidate.laws):
        if law.label is None:
            continue
        if law.label in explicit:
            issues.append(ValidationIssue(
                DUPLICATE_LABEL,
                f"label {law.label!r} used by laws {explicit[law.label] + 1} and {idx + 1}",
                idx,
            ))
        else:
            explicit[law.label] = idx

    final_labels: list[str] = []
    for idx, law in enumerate(candidate.laws):
        if law.label is not None:
            final_labels.append(law.label)
            continue
        auto = f"r{idx + 1}"
        if auto in explicit:
            issues.append(ValidationIssue(
                DUPLICATE_LABEL,
                f"auto-assigned label {auto!r} for law {idx + 1} collides with an explicit label",
                idx,
            ))
        final_labels.append(auto)

    witness = negation_loop_check(candidate)
    if witness is not None:
        cycle = " -> ".join(witness + (witness[0],))
        issues.append(ValidationIssue(
            DOUBLE_NEGATION_LOOP,
            f"causal feedback through two negations: {cycle}",
            None,
            witness,
        ))

    if issues:
        raise ValidationError(issues)

    if all(law.label is not None for law in candidate.laws):
        return candidate
    relabeled = tuple(
        law if law.label is not None else law.with_label(label)
        for law, label in zip(candidate.laws, final_labels)
    )
    return Theory(relabeled, candidate.exogenous)


def negation_loop_check(theory: Theory) -> tuple[Atom, ...] | None:
    """Look for causal feedback that crosses two or more negations.

    Dependency edges run from each body atom to each head atom and are
    negative when the body literal is negated. Returns the atoms of a
    closed walk that uses at least two distinct negative edges (i.e. a
    strongly connected component containing two of them), or None.
    Feedback through a single negation is left alone.
    """
    succ: dict[Atom, set[Atom]] = {}
    neg_edges: set[tuple[Atom, Atom]] = set()
    for law in theory.laws:
        for lit in law.body:
            for alt in law.head:
                succ.setdefault(lit.atom, set()).add(alt.atom)
                if not lit.positive:
                    neg_edges.add((lit.atom, alt.atom))
    if len(neg_edges) < 2:
        return None

    # Only the endpoints of negative edges are ever asked about.
    reach: dict[Atom, frozenset[Atom]] = {
        node: _reachable(succ, node) for edge in neg_edges for node in edge
    }

    def same_scc(u: Atom, v: Atom) -> bool:
        return v in reach[u] and u in reach[v]

    edges = sorted(neg_edges)
    for i, (u1, v1) in enumerate(edges):
        if not same_scc(u1, v1):
            continue
        for u2, v2 in edges[i + 1:]:
            if not (same_scc(u1, u2) and same_scc(u2, v2)):
                continue
            # Closed walk: u1 -~-> v1 ... u2 -~-> v2 ... back to u1.
            first = _path(succ, v1, u2)
            second = _path(succ, v2, u1)
            walk = (u1, *first, *second)
            return walk[:-1] if len(walk) > 1 and walk[-1] == walk[0] else walk
    return None


def _reachable(succ: dict, start: Atom) -> frozenset:
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def _path(succ: dict, start: Atom, goal: Atom) -> tuple[Atom, ...]:
    """Shortest path from start to goal, endpoints included; BFS."""
    if start == goal:
        return (start,)
    parents = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in sorted(succ.get(node, ())):
            if nxt in parents:
                continue
            parents[nxt] = node
            if nxt == goal:
                out = [nxt]
                while parents[out[-1]] is not None:
                    out.append(parents[out[-1]])
                return tuple(reversed(out))
            queue.append(nxt)
    raise AssertionError("no path inside a strongly connected component")
