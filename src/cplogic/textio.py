"""Concrete syntax: theory files, story files, formulas and tree renderings.

Theory files (``.cpl``) are line oriented:

    % comment until end of line
    exogenous throws_suzy, throws_billy.
    @suzy: shatters:0.9 <- throws_suzy.
    burn <- match1, match2.
    antidote:*.

One statement per line. A law is ``[@label:] head [<- body] .`` where the
head lists ``atom[:prob]`` alternatives separated by ``;`` (a missing
annotation means probability 1), and the body is a comma-separated
conjunction of literals (``~`` negates). Probabilities are decimals,
``num/den`` rationals, or ``*`` for an unknown value (stored as 1/2 and
flagged). Decimals are parsed as exact rationals, never floats.

Story files (``.story``) start with one context line and then one line
per event, in order:

    context throws_suzy, throws_billy.
    r1 -> shatters.
    r2 -> none.

Formulas use ``!`` (or ``~``) for negation, ``&``, ``|``, parentheses and
the constants ``true``/``false``, with the usual precedence. In all three
forms, blanks between tokens are spaces, tabs, CRs and LFs; any other
whitespace there, such as a no-break space, is a parse error. File lines
end at LF, CR or CRLF only, and numerals use ASCII digits only.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Iterator, Set as AbstractSet
from decimal import Decimal
from fractions import Fraction
from itertools import compress

from .core import (
    TRUE,
    FALSE,
    Atom,
    Conjunction,
    CPLaw,
    Disjunction,
    Formula,
    FormulaAtom,
    HeadAlternative,
    Literal,
    Negation,
    Numbering,
    Probability,
    Record,
    Theory,
    fraction_text,
    setfield,
    validate_theory,
)
from .engine import (
    NO_EFFECT,
    Branch,
    ExecutionTree,
    Outcome,
)
from .errors import (
    InvalidOutcomeError,
    NoEffectNotAllowedError,
    OutcomeNotInHeadError,
    ParseError,
    UnknownLabelError,
)

#: Each token's pattern reads the blanks before it.
_BLANKS = re.compile(r"[ \t\r\n]*")
_IDENT = re.compile(_BLANKS.pattern + r"([A-Za-z_][A-Za-z0-9_]*)")
_NUMBER = re.compile(_BLANKS.pattern + r"([0-9]+\.[0-9]+|[0-9]+[ \t\r\n]*/[ \t\r\n]*[0-9]+|[0-9]+)")
_SYMBOL = re.compile(_BLANKS.pattern + r"(<-|->|[@:;,.~!&|()*])")
_DIGITS = re.compile(r"[0-9]+")

#: Longest digit run a probability numeral may have. Numerals are
#: converted exactly through ``Decimal``, which Python's int
#: string-conversion limit does not apply to (that limit stays as it is);
#: the time is quadratic in the run's length, about 0.4 s at this cap.
_MAX_NUMERAL_DIGITS = 100_000


def _numeral_value(numeral: str) -> Fraction:
    """The exact value of a decimal or ``n/d`` numeral without whitespace.

    Raises ``ValueError`` when a digit run is longer than the cap and
    ``ZeroDivisionError`` for a zero denominator.
    """
    if max(map(len, _DIGITS.findall(numeral))) > _MAX_NUMERAL_DIGITS:
        raise ValueError("probability numeral has too many digits")
    num, _, den = numeral.partition("/")
    if den:
        return Fraction(int(Decimal(num)), int(Decimal(den)))
    return Fraction(Decimal(num))


class _Scanner:
    """Minimal cursor over one statement, tracking the source position.

    ``names`` maps each atom name read so far to its atom, and
    ``numerals`` each probability numeral read so far to its value; the
    statements of one file share both, so a name is checked, and a
    numeral converted, once per parse.
    """

    def __init__(self, text: str, line: int = 1, names: dict | None = None, numerals: dict | None = None):
        self.text = text
        self.pos = 0
        self.line = line
        self.names = {} if names is None else names
        self.numerals = {} if numerals is None else numerals

    def error(self, message: str) -> ParseError:
        """A parse error at the column of the next token."""
        return ParseError(message, self.line, _BLANKS.match(self.text, self.pos).end() + 1)

    def at_end(self) -> bool:
        return _BLANKS.fullmatch(self.text, self.pos) is not None

    def try_symbol(self, symbol: str) -> bool:
        match = _SYMBOL.match(self.text, self.pos)
        if match and match[1] == symbol:
            self.pos = match.end()
            return True
        return False

    def expect_symbol(self, symbol: str) -> None:
        if not self.try_symbol(symbol):
            raise self.error(f"expected {symbol!r}")

    def ident(self, what: str) -> str:
        match = _IDENT.match(self.text, self.pos)
        if not match:
            raise self.error(f"expected {what}")
        self.pos = match.end()
        return match[1]

    def try_keyword(self, word: str) -> bool:
        match = _IDENT.match(self.text, self.pos)
        if match and match[1] == word:
            self.pos = match.end()
            return True
        return False

    def atom(self) -> Atom:
        start = self.pos
        name = self.ident("atom")
        atom = self.names.get(name)
        if atom is None:
            try:
                atom = self.names[name] = Atom(name)
            except ValueError as exc:
                self.pos = start
                raise self.error(str(exc)) from None
        return atom

    def atoms(self) -> frozenset:
        """A comma-separated list of one or more atoms."""
        atoms = {self.atom()}
        while self.try_symbol(","):
            atoms.add(self.atom())
        return frozenset(atoms)

    def probability(self) -> tuple[Probability, bool]:
        if self.try_symbol("*"):
            return Fraction(1, 2), True
        match = _NUMBER.match(self.text, self.pos)
        if not match:
            raise self.error("expected a probability (decimal, num/den, or *)")
        token = match[1]
        value = self.numerals.get(token)
        if value is None:
            try:
                value = self.numerals[token] = _numeral_value("".join(token.split()))
            except ZeroDivisionError:
                raise self.error("probability denominator is zero") from None
            except ValueError:
                raise self.error("probability numeral has too many digits") from None
        if value > 1:
            raise self.error(f"probability {token} exceeds 1")
        self.pos = match.end()
        return value, False


# ---------------------------------------------------------------------------
# Theories


class TheoryDocument(Record):
    """Parse result: the candidate theory plus per-law source lines."""

    __slots__ = ("source", "theory", "law_lines")

    def __init__(self, source: str, theory: Theory, law_lines: tuple[int, ...]):
        setfield(self, "source", source)
        setfield(self, "theory", theory)
        setfield(self, "law_lines", law_lines)


def _statements(text: str) -> Iterator[_Scanner]:
    """A scanner over each statement line of a theory or story file.

    Lines end at LF, CR or CRLF only. Comments are stripped and lines
    of blanks alone skipped. Once the caller has parsed a statement and
    asks for the next one, anything left on the line raises "unexpected
    input after '.'". The scanners share one name -> atom map and one
    numeral -> value map, which live as long as the parse.
    """
    names: dict = {}
    numerals: dict = {}
    for line_no, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        content = raw.split("%", 1)[0]
        if not content.strip(" \t"):  # CR and LF ended the line
            continue
        sc = _Scanner(content, line_no, names, numerals)
        yield sc
        if not sc.at_end():
            raise sc.error("unexpected input after '.'")


def parse_theory(text: str) -> TheoryDocument:
    """Parse theory text into an unvalidated candidate."""
    laws: list[CPLaw] = []
    law_lines: list[int] = []
    exogenous: set[Atom] = set()
    for sc in _statements(text):
        if sc.try_keyword("exogenous"):
            exogenous.update(sc.atoms())
            sc.expect_symbol(".")
        else:
            laws.append(_parse_law(sc))
            law_lines.append(sc.line)
    return TheoryDocument(text, Theory(tuple(laws), frozenset(exogenous)), tuple(law_lines))


def load_theory(text: str) -> Theory:
    """Parse and validate in one step."""
    return validate_theory(parse_theory(text).theory)


def _parse_law(sc: _Scanner) -> CPLaw:
    label = None
    if sc.try_symbol("@"):
        label = sc.ident("law label")
        sc.expect_symbol(":")
    head = [_parse_alternative(sc)]
    while sc.try_symbol(";"):
        head.append(_parse_alternative(sc))
    body: list[Literal] = []
    if sc.try_symbol("<-"):
        body.append(_parse_body_literal(sc))
        while sc.try_symbol(","):
            body.append(_parse_body_literal(sc))
    sc.expect_symbol(".")
    return CPLaw(tuple(head), tuple(body), label)


def _parse_alternative(sc: _Scanner) -> HeadAlternative:
    atom = sc.atom()
    if sc.try_symbol(":"):
        prob, symbolic = sc.probability()
        return HeadAlternative(atom, prob, symbolic)
    return HeadAlternative(atom, Fraction(1))


def _parse_body_literal(sc: _Scanner) -> Literal:
    if sc.try_symbol("~"):
        return Literal(sc.atom(), False)
    return Literal(sc.atom())


# ---------------------------------------------------------------------------
# Stories


class StoryStep(Record):
    __slots__ = ("label", "outcome", "line")

    def __init__(self, label: str, outcome: Outcome, line: int = 0):
        setfield(self, "label", label)
        setfield(self, "outcome", outcome)
        setfield(self, "line", line)


class StoryDocument(Record):
    """A parsed story: initial context plus the ordered event steps."""

    __slots__ = ("context", "steps")

    def __init__(self, context: frozenset, steps: tuple[StoryStep, ...]):
        setfield(self, "context", context)
        setfield(self, "steps", steps)


def parse_story(text: str, theory: Theory) -> StoryDocument:
    """Parse a story and resolve its steps against the theory's laws."""
    context: frozenset | None = None
    steps: list[StoryStep] = []
    for sc in _statements(text):
        if context is None:
            if not sc.try_keyword("context"):
                raise sc.error("a story must start with a 'context' line")
            context = frozenset()
            if not sc.try_symbol("."):
                context = sc.atoms()
                sc.expect_symbol(".")
        else:
            steps.append(_parse_step(sc, theory))
    if context is None:
        raise ParseError("a story must start with a 'context' line", 1)
    return StoryDocument(context, tuple(steps))


def _parse_step(sc: _Scanner, theory: Theory) -> StoryStep:
    sc.try_symbol("@")
    label = sc.ident("law label")
    sc.expect_symbol("->")
    try:
        law = theory.law(label)
    except UnknownLabelError:
        raise UnknownLabelError(f"unknown law label {label!r} (line {sc.line})") from None
    outcome = NO_EFFECT if sc.try_keyword("none") else sc.atom()
    if law.outcomes.prob(outcome) is None:
        if outcome is NO_EFFECT:
            raise NoEffectNotAllowedError(f"law {label} always has a visible effect (line {sc.line})")
        raise OutcomeNotInHeadError(f"{outcome} is not a head atom of law {label} (line {sc.line})")
    sc.expect_symbol(".")
    return StoryStep(label, outcome, sc.line)


# ---------------------------------------------------------------------------
# Formulas, contexts, literals


#: Deepest nesting of parentheses and negations a formula may use. The
#: parser recurses at every level, so the cap keeps any accepted formula
#: far inside Python's recursion limit; the evaluator needs no cap.
MAX_FORMULA_NESTING = 100


def parse_formula(text: str) -> Formula:
    sc = _Scanner(text)
    if sc.at_end():
        raise ParseError("empty formula", 1, 1)
    formula = _parse_disjunction(sc, 0)
    if not sc.at_end():
        raise sc.error("unexpected trailing input")
    return formula


def _parse_disjunction(sc: _Scanner, depth: int) -> Formula:
    parts = [_parse_conjunction(sc, depth)]
    while sc.try_symbol("|"):
        parts.append(_parse_conjunction(sc, depth))
    return parts[0] if len(parts) == 1 else Disjunction(tuple(parts))


def _parse_conjunction(sc: _Scanner, depth: int) -> Formula:
    parts = [_parse_unary(sc, depth)]
    while sc.try_symbol("&"):
        parts.append(_parse_unary(sc, depth))
    return parts[0] if len(parts) == 1 else Conjunction(tuple(parts))


def _parse_unary(sc: _Scanner, depth: int) -> Formula:
    if depth > MAX_FORMULA_NESTING:
        # At the end of the last token read, before any blanks.
        raise ParseError("formula nested too deeply", sc.line, sc.pos + 1)
    if sc.try_symbol("!") or sc.try_symbol("~"):
        return Negation(_parse_unary(sc, depth + 1))
    if sc.try_symbol("("):
        inner = _parse_disjunction(sc, depth + 1)
        sc.expect_symbol(")")
        return inner
    if sc.try_keyword("true"):
        return TRUE
    if sc.try_keyword("false"):
        return FALSE
    return FormulaAtom(sc.atom())


def parse_context(text: str) -> frozenset:
    """Comma-separated atom list; the empty string is the empty context."""
    sc = _Scanner(text)
    if sc.at_end():
        return frozenset()
    atoms = sc.atoms()
    if not sc.at_end():
        raise sc.error("unexpected trailing input")
    return atoms


def parse_literal(text: str) -> Literal:
    """``atom`` or ``~atom``."""
    sc = _Scanner(text)
    negated = sc.try_symbol("~") or sc.try_symbol("!")
    atom = sc.atom()
    if not sc.at_end():
        raise sc.error("unexpected trailing input")
    return Literal(atom, not negated)


# ---------------------------------------------------------------------------
# Serialization


def _format_prob(alt: HeadAlternative) -> str:
    if alt.symbolic:
        return f"{alt.atom.name}:*"
    if alt.prob == 1:
        return alt.atom.name
    return f"{alt.atom.name}:{fraction_text(alt.prob)}"


def format_interp(interp: AbstractSet[Atom]) -> str:
    """An interpretation as ``{a, b}``, atoms sorted by name."""
    return "{" + ", ".join(sorted(interp)) + "}"


def interp_formatter(numbering: Numbering) -> Callable[[int], str]:
    """``format_interp`` for atom masks of one numbering.

    The renderers format every node from its state's ``interp_bits``,
    building no view. The atoms are sorted by name once, not per mask,
    and each distinct mask is formatted once: the text is kept for the
    life of the returned function, so one render keeps it only while it
    runs. A mask's binary digits become 0/1 flag bytes in name order,
    which pick its atoms' names without a Python call per atom.
    """
    atoms = numbering.atoms
    if not atoms:
        return lambda mask: "{}"
    n = len(atoms)
    order = sorted(range(n), key=atoms.__getitem__)
    names = [atoms[i].name for i in order]
    # Atom i is digit n - 1 - i of the mask's n-digit binary form.
    # One index would make itemgetter return a bare int, not a sequence.
    in_name_order = operator.itemgetter(*[n - 1 - i for i in order]) if n > 1 else bytes
    flags = bytes.maketrans(b"01", b"\0\1")
    spec = f"0{n}b"
    texts: dict[int, str] = {}

    def text(mask: int) -> str:
        shown = texts.get(mask)
        if shown is None:
            picked = in_name_order(format(mask, spec).encode().translate(flags))
            shown = texts[mask] = "{" + ", ".join(compress(names, picked)) + "}"
        return shown

    return text


def format_law(law: CPLaw, include_label: bool = True) -> str:
    head = "; ".join(_format_prob(alt) for alt in law.head)
    body = ", ".join(str(lit) for lit in law.body)
    text = head if not body else f"{head} <- {body}"
    if include_label and law.label is not None:
        return f"@{law.label}: {text}."
    return f"{text}."


def serialize_theory(theory: Theory) -> str:
    """Canonical text form; labels are always written out."""
    lines = []
    if theory.exogenous:
        names = ", ".join(sorted(theory.exogenous))
        lines.append(f"exogenous {names}.")
    lines.extend(format_law(law) for law in theory.laws)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tree rendering and DOT export


def format_tree(tree: ExecutionTree, interp_text: Callable[[int], str] | None = None) -> Iterator[str]:
    """The tree's text lines, path by path, one at a time, so a caller
    can print them as they come; an edge's line precedes its subtree.

    ``interp_text`` formats a node's ``interp_bits``; by default a new
    ``interp_formatter`` of the tree's numbering, so each distinct
    interpretation is formatted once per call. A caller that formats
    more of the same tree, as ``cplogic tree`` does its distribution
    rows, passes its own formatter to share that work.
    """
    if interp_text is None:
        interp_text = interp_formatter(tree.theory.numbering)
    for depth, parent, edge, node in tree.walk():
        if parent is not None:
            yield f"{'  ' * (2 * depth - 1)}{parent.law.label} -> {edge.outcome} ({fraction_text(edge.prob)})"
        yield f"{'  ' * (2 * depth)}{interp_text(node.state.interp_bits)}"


def export_tree_dot(tree, theory: Theory | None = None) -> str:
    """Render an execution tree, or a replayed branch, as a DOT digraph.

    Node labels show the true atoms; edge labels show the fired law, the
    realized outcome and its probability.
    """
    lines = ["digraph execution_tree {", "  node [shape=box];"]
    if isinstance(tree, Branch):
        law_of = theory.law if theory is not None else None
        interp_text = interp_formatter(tree.states[0].theory.numbering)
        for i, state in enumerate(tree.states):
            lines.append(f'  n{i} [label="{interp_text(state.interp_bits)}"];')
        for i, event in enumerate(tree.events):
            text = f"{event.label}: {event.outcome}"
            if law_of is not None:
                prob = law_of(event.label).outcomes.prob(event.outcome)
                if prob is None:
                    raise InvalidOutcomeError(f"{event.outcome} is not an outcome of law {event.label}")
                text += f" {fraction_text(prob)}"
            lines.append(f'  n{i} -> n{i + 1} [label="{text}"];')
    elif isinstance(tree, ExecutionTree):
        # Nodes are numbered in pre-order. An edge's line follows its
        # child's whole subtree, so the line into the node at depth d
        # waits in held[d - 1] until a node at depth d or above comes.
        interp_text = interp_formatter(tree.theory.numbering)
        ids: list = []  # ids[d]: the number of the path's node at depth d
        held: list = []
        for ident, (depth, parent, edge, node) in enumerate(tree.walk()):
            while len(held) >= depth > 0:
                lines.append(held.pop())
            lines.append(f'  n{ident} [label="{interp_text(node.state.interp_bits)}"];')
            if parent is not None:
                text = f"{parent.law.label}: {edge.outcome} {fraction_text(edge.prob)}"
                held.append(f'  n{ids[depth - 1]} -> n{ident} [label="{text}"];')
            del ids[depth:]
            ids.append(ident)
        lines.extend(reversed(held))
    else:
        raise TypeError(f"cannot export {type(tree).__name__} as DOT")
    lines.append("}")
    return "\n".join(lines) + "\n"
