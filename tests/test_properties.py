"""Property tests: arbitrary input text never escapes as a Python traceback."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from cplogic import corpus
from cplogic.cli import main
from cplogic.errors import CPLogicError
from cplogic.textio import (
    load_theory,
    parse_context,
    parse_formula,
    parse_literal,
    parse_story,
    parse_theory,
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
