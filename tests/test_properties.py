"""Property tests: arbitrary input text never escapes as a Python
traceback, and valid theories survive a round trip through their text."""

import contextlib
import io
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from cplogic import corpus
from cplogic.cli import main
from cplogic.core import RESERVED_WORDS, Atom, CPLaw, HeadAlternative, Literal, Theory, validate_theory
from cplogic.errors import CPLogicError
from cplogic.textio import (
    load_theory,
    parse_context,
    parse_formula,
    parse_literal,
    parse_story,
    parse_theory,
    serialize_theory,
)

# Besides arbitrary text, near-valid theories and stories: they get past
# the first token and into the later checks (probabilities, labels,
# validation, story replay, the queries). Valid pieces are listed more
# than once, so that they are drawn more often.
_ATOM = st.sampled_from(["a", "b", "c"] * 4 + ["Bad", "none"])
_PROB = st.sampled_from(["", ":1/2"] * 3 + [":0.5", ":*", ":3/2", ":0", ":1/0"])
_ALT = st.tuples(_ATOM, _PROB).map("".join)
_LITERAL = st.tuples(st.sampled_from(["", "~"]), _ATOM).map("".join)
_LAW = st.tuples(
    st.sampled_from(["", "@r1: ", "@q: "]),
    st.lists(_ALT, min_size=1, max_size=3).map("; ".join),
    st.lists(_LITERAL, max_size=2).map(lambda body: " <- " + ", ".join(body) if body else ""),
).map(lambda parts: "".join(parts) + ".")
_ATOMS = st.lists(_ATOM, min_size=1, max_size=2).map(", ".join)
_STEP = st.tuples(st.sampled_from(["r1", "r2", "q", "zz"]), _ATOM).map(lambda p: f"{p[0]} -> {p[1]}.")
_JUNK = st.sampled_from(["", "% note", "exogenous .", "r1 -> .", "a <-", "(", "!a & (b | ~c)", "a, b"])
THEORY = st.one_of(
    st.text(max_size=60),
    st.lists(
        st.one_of(_LAW, _ATOMS.map(lambda atoms: f"exogenous {atoms}."), _JUNK), max_size=5
    ).map("\n".join),
)
STORY = st.one_of(
    st.text(max_size=60),
    st.tuples(
        _ATOMS.map(lambda atoms: f"context {atoms}."), st.lists(st.one_of(_STEP, _JUNK), max_size=4)
    ).map(lambda parts: "\n".join([parts[0], *parts[1]])),
)

_SETTINGS = dict(derandomize=True, database=None, deadline=None)


@settings(max_examples=300, **_SETTINGS)
@given(st.one_of(THEORY, STORY))
def test_parsers_raise_only_package_errors(text):
    theory = corpus.theory("suzy_billy")
    for parse in (
        parse_theory, load_theory, parse_formula, parse_context, parse_literal,
        lambda t: parse_story(t, theory),
    ):
        try:
            parse(text)
        except CPLogicError:
            pass


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture], **_SETTINGS)
@given(theory=THEORY, story=STORY)
def test_cli_maps_every_file_to_an_exit_code(tmp_path, theory, story):
    cpl = tmp_path / "theory.cpl"
    cpl.write_text(theory, encoding="utf-8")
    told = tmp_path / "told.story"
    told.write_text(story, encoding="utf-8")
    runs = (
        ["validate", cpl],
        ["prob", cpl, "--query", "a | !b"],
        ["tree", cpl],
        ["cause", cpl, "--story", told, "--cause", "a", "--effect", "b"],
        ["causes", cpl, "--outcome", "a, b", "--effect", "b"],
    )
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in runs:
            assert main([str(arg) for arg in argv]) in (0, 1, 2, 3)


# Valid theories: distinct names, exogenous atoms first, and bodies that
# only mention atoms listed before every head atom, so the dependency
# graph is acyclic and no negation loop can form. Heads sum to at most
# one, counting a ``*`` as its 1/2 placeholder.
_NAME = st.from_regex(r"[a-z][A-Za-z0-9_]{0,5}", fullmatch=True).filter(lambda n: n not in RESERVED_WORDS)


@st.composite
def valid_theories(draw):
    atoms = [Atom(name) for name in draw(st.lists(_NAME, min_size=1, max_size=6, unique=True))]
    n_exo = draw(st.integers(0, len(atoms) - 1))
    laws = []
    for k in range(draw(st.integers(1, 5))):
        heads = draw(st.lists(st.integers(n_exo, len(atoms) - 1), min_size=1, max_size=3, unique=True))
        scale = draw(st.integers(1, 12))
        budget = Fraction(1)
        head = []
        for i in heads:
            if budget >= Fraction(1, 2) and draw(st.sampled_from([False] * 4 + [True])):
                head.append(HeadAlternative(atoms[i], Fraction(1, 2), True))
                budget -= Fraction(1, 2)
                continue
            weight = Fraction(draw(st.integers(1, scale)), scale)
            if weight > budget:
                break
            head.append(HeadAlternative(atoms[i], weight))
            budget -= weight
        if not head:
            continue
        below = range(min(heads))
        body = [Literal(atoms[i], draw(st.booleans()))
                for i in draw(st.lists(st.sampled_from(below), unique=True, max_size=3))] if below else []
        label = draw(st.sampled_from([None, f"q{k}"]))
        laws.append(CPLaw(tuple(head), tuple(body), label))
    return validate_theory(Theory(tuple(laws), frozenset(atoms[:n_exo])))


@settings(max_examples=200, **_SETTINGS)
@given(valid_theories())
def test_serialized_theories_parse_back_equal(theory):
    again = validate_theory(parse_theory(serialize_theory(theory)).theory)
    assert again == theory
    assert again.numbering.atoms == theory.numbering.atoms


# Query arguments over the corpus theories: mostly the theory's own
# atoms, sometimes unknown or malformed names; formulas built from them,
# sometimes arbitrary text.
_CORPUS = {name: corpus.theory(name) for name in (
    "suzy_billy", "forest_conj", "forest_disj", "hall_left", "hall_right", "bogus_prevention",
)}
_STRAY = ["zzz", "Bad", "none", ""]


def _literals(atoms):
    return st.lists(st.tuples(st.sampled_from(["", "", "~"]), atoms).map("".join), max_size=4).map(",".join)


@st.composite
def corpus_queries(draw):
    name = draw(st.sampled_from(sorted(_CORPUS)))
    theory = _CORPUS[name]
    own = sorted(theory.vocabulary)
    atom = st.sampled_from(own * 8 + _STRAY)
    exogenous = st.sampled_from(sorted(theory.exogenous) * 4 + own + _STRAY)
    formula = st.recursive(
        st.one_of(atom, st.sampled_from(["true", "false"])),
        lambda inner: st.one_of(
            inner.map("!{}".format),
            st.tuples(inner, st.sampled_from(["&", "|"]), inner).map(lambda t: "({} {} {})".format(*t)),
        ),
        max_leaves=6,
    )
    context = st.lists(exogenous, max_size=3, unique=True).map(", ".join)
    causes = [
        "--outcome=" + draw(st.lists(atom, max_size=5, unique=True).map(", ".join)),
        "--effect=" + draw(st.sampled_from(["", "~"])) + draw(atom),
    ]
    candidates = draw(st.one_of(st.none(), _literals(atom)))
    if candidates is not None:
        causes.append(f"--candidates={candidates}")
    return name, (
        ["prob", f"--query={draw(st.one_of(formula, formula, formula, st.text(max_size=20)))}",
         f"--context={draw(context)}"],
        ["causes", *causes],
        ["causes", *causes, f"--context={draw(context)}"],
    )


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("corpus")
    out = {}
    for name in _CORPUS:
        path = folder / f"{name}.cpl"
        path.write_text(corpus.read_text(f"{name}.cpl"), encoding="utf-8")
        out[name] = str(path)
    return out


@settings(max_examples=150, **_SETTINGS)
@given(corpus_queries())
def test_cli_maps_every_query_argument_to_an_exit_code(corpus_files, drawn):
    name, runs = drawn
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for command, *options in runs:
            assert main([command, corpus_files[name], *options]) in (0, 1, 2, 3)
