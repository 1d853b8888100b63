"""Command-line behavior: output, warnings and exit codes."""

import inspect
import sys
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import pytest

from cplogic import cli, corpus
from cplogic.cli import _prob_text, main
from cplogic.engine import build_tree, distribution
from cplogic.textio import format_interp, format_tree, load_theory, parse_context
from test_engine import _dot_reference, _render_reference


@pytest.fixture
def files(tmp_path):
    """Corpus files written to disk for the CLI to read."""
    out = {}
    for name in (
        "suzy_billy.cpl", "suzy_billy_suzy_first.story",
        "forest_conj.cpl", "hall_right.cpl",
        "bogus_prevention.cpl", "bogus_prevention_coh_first.story",
    ):
        path = tmp_path / name
        path.write_text(corpus.read_text(name), encoding="utf-8")
        out[name] = str(path)
    return out


class TestValidate:
    def test_lists_laws_with_labels(self, files, capsys):
        assert main(["validate", files["suzy_billy.cpl"]]) == 0
        out = capsys.readouterr().out
        assert "r1" in out and "r2" in out and "2 laws" in out

    def test_double_negation_loop_exits_2_with_witness(self, tmp_path, capsys):
        path = tmp_path / "loop.cpl"
        path.write_text("p:0.5 <- ~q.\nq:0.5 <- ~p.\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "double-negation-loop" in err and "p" in err and "q" in err

    def test_malformed_probability_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cpl"
        path.write_text("a:1.2.\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1

    def test_numeral_past_the_digit_cap_exits_1(self, tmp_path, capsys):
        path = tmp_path / "long.cpl"
        path.write_text("a:0." + "1" * 100_001 + ".\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("parse error: probability numeral has too many digits")

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.cpl")]) == 1

    def test_theory_file_not_utf8_exits_1(self, tmp_path, capsys):
        path = tmp_path / "latin.cpl"
        path.write_bytes(b"\xffa.\n")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "utf-8" in err and "Traceback" not in err
        assert err.endswith(f"in {path}\n")

    def test_story_file_not_utf8_exits_1(self, files, tmp_path, capsys):
        path = tmp_path / "latin.story"
        path.write_bytes(b"\xffcontext throws_suzy.\n")
        assert main([
            "cause", files["suzy_billy.cpl"], "--story", str(path),
            "--cause", "throws_suzy", "--effect", "shatters",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "utf-8" in err
        assert err.endswith(f"in {path}\n")


class TestIssueLines:
    """Every subcommand loads its theory the same way, so each reports
    validation issues with the line of the law at fault."""

    THEORY = "exogenous t.\nb <- t.\n% two alternatives for one atom\na:0.6; a:0.5 <- t.\n"

    @pytest.mark.parametrize("command", [
        ["validate"],
        ["prob", "--query", "a"],
        ["tree"],
        ["cause", "--story", "STORY", "--cause", "t", "--effect", "b"],
        ["causes", "--outcome", "t, b", "--effect", "b"],
    ], ids=lambda command: command[0])
    def test_issues_name_their_line(self, tmp_path, capsys, command):
        path = tmp_path / "bad.cpl"
        path.write_text(self.THEORY, encoding="utf-8")
        story = tmp_path / "told.story"
        story.write_text("context t.\nr1 -> b.\n", encoding="utf-8")
        argv = [command[0], str(path)] + [str(story) if arg == "STORY" else arg for arg in command[1:]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error[duplicate-head-atom] (line 4): law 2: atom a appears twice in the head\n"
            "error[head-sum-exceeds-one] (line 4): law 2: head probabilities sum to 11/10 > 1\n"
        )


class TestProb:
    def test_exact_rational_with_decimal(self, files, capsys):
        code = main([
            "prob", files["suzy_billy.cpl"],
            "--query", "shatters",
            "--context", "throws_suzy,throws_billy",
        ])
        assert code == 0
        assert "49/50 (0.98)" in capsys.readouterr().out

    def test_constant_query(self, files, capsys):
        assert main(["prob", files["suzy_billy.cpl"], "--query", "true"]) == 0
        assert capsys.readouterr().out.strip() == "1 (1)"

    def test_lone_match_cannot_burn(self, tmp_path, capsys):
        path = tmp_path / "forest.cpl"
        path.write_text(corpus.read_text("forest_conj.cpl"), encoding="utf-8")
        code = main(["prob", str(path), "--query", "burn", "--context", "match1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0 (0)"

    def test_symbolic_probabilities_warn(self, files, capsys):
        assert main(["prob", files["bogus_prevention.cpl"], "--query", "death"]) == 0
        captured = capsys.readouterr()
        assert "1/4" in captured.out
        assert "placeholder" in captured.err

    def test_unknown_atom_exits_2(self, files):
        assert main(["prob", files["suzy_billy.cpl"], "--query", "zz_missing"]) == 2

    @pytest.mark.parametrize(
        "query", ["!" * 3000 + "shatters", "(" * 400 + "shatters" + ")" * 400], ids=["bangs", "parens"]
    )
    def test_deeply_nested_query_is_a_parse_error(self, files, capsys, query):
        assert main(["prob", files["suzy_billy.cpl"], "--query", query]) == 1
        assert capsys.readouterr().err.startswith("parse error: formula nested too deeply (line 1, ")


class TestTree:
    def test_policies_change_shape_not_distribution(self, files, capsys):
        assert main([
            "tree", files["suzy_billy.cpl"],
            "--context", "throws_suzy,throws_billy", "--policy", "r1,r2",
        ]) == 0
        first = capsys.readouterr().out
        assert main([
            "tree", files["suzy_billy.cpl"],
            "--context", "throws_suzy,throws_billy", "--policy", "r2,r1",
        ]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[1].strip().startswith("r1")
        assert second.splitlines()[1].strip().startswith("r2")
        footer = "distribution over final states:"
        assert first.split(footer)[1] == second.split(footer)[1]
        assert "49/50" in first

    def test_dot_output(self, files, capsys):
        assert main([
            "tree", files["suzy_billy.cpl"],
            "--context", "throws_suzy,throws_billy", "--dot",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert out.count("->") == 6

    def test_empty_theory_tree(self, tmp_path, capsys):
        path = tmp_path / "empty.cpl"
        path.write_text("", encoding="utf-8")
        assert main(["tree", str(path)]) == 0
        assert "{}" in capsys.readouterr().out

    def test_policy_labels_may_have_spaces_after_commas(self, files, capsys):
        outputs = []
        for policy in ("r2,r1", "r2, r1"):
            assert main([
                "tree", files["suzy_billy.cpl"],
                "--context", "throws_suzy,throws_billy", "--policy", policy,
            ]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.splitlines()[1].strip().startswith("r2")

    def test_unknown_policy_label_exits_2(self, files):
        assert main([
            "tree", files["suzy_billy.cpl"], "--policy", "zz",
        ]) == 2


@contextmanager
def recursion_headroom(frames):
    """Lower the recursion limit to ``frames`` above the current depth."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestDeepChain:
    """A chain deeper than the recursion limit still evaluates and prints."""

    DEPTH = 300

    @pytest.fixture
    def chain(self, tmp_path):
        lines = ["exogenous a0."]
        lines += [f"a{i}:9/10 <- a{i - 1}." for i in range(1, self.DEPTH + 1)]
        path = tmp_path / "chain.cpl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_prob(self, chain, capsys):
        with recursion_headroom(100):
            code = main(["prob", chain, "--query", f"a{self.DEPTH}", "--context", "a0"])
        assert code == 0
        assert capsys.readouterr().out.startswith(f"{Fraction(9, 10) ** self.DEPTH} (")

    def test_tree_text_and_dot(self, chain, capsys):
        with recursion_headroom(100):
            assert main(["tree", chain, "--context", "a0"]) == 0
            text = capsys.readouterr().out
            assert main(["tree", chain, "--context", "a0", "--dot"]) == 0
            dot = capsys.readouterr().out
        # Each law fires once, where its body came true, with two outcomes.
        assert text.count(" -> ") == dot.count(" -> ") == 2 * self.DEPTH
        assert f"r{self.DEPTH} -> a{self.DEPTH} (9/10)" in text

    def test_causes(self, chain, capsys):
        outcome = ",".join(f"a{i}" for i in range(self.DEPTH + 1))
        with recursion_headroom(100):
            code = main([
                "causes", chain, "--outcome", outcome,
                "--effect", f"a{self.DEPTH}", "--candidates", "a0",
            ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1].split() == ["a0", "certain", "1/1"]


class TestResourceErrors:
    """A query that runs out of memory or stack exits 3 with one line on
    stderr, not a traceback. A patched engine function raises the error;
    nothing is exhausted for real."""

    @pytest.mark.parametrize("argv, target", [
        (["prob", "--query", "shatters"], "prob_formula"),
        (["tree"], "build_tree"),
    ], ids=["prob", "tree"])
    @pytest.mark.parametrize("error, text", [
        (MemoryError(), "out of memory"),
        (RecursionError("maximum recursion depth exceeded"), "recursion too deep"),
    ], ids=["memory", "recursion"])
    def test_exits_3_with_one_line(self, files, capsys, monkeypatch, argv, target, error, text):
        def raising(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, target, raising)
        assert main([argv[0], files["suzy_billy.cpl"], *argv[1:], "--context", "throws_suzy"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"resource error: {text}\n"
        assert "Traceback" not in captured.err


class TestCause:
    def test_first_hit_reported_as_cause_with_witness(self, files, capsys):
        code = main([
            "cause", files["suzy_billy.cpl"],
            "--story", files["suzy_billy_suzy_first.story"],
            "--cause", "throws_suzy", "--effect", "shatters", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: CAUSE" in out
        assert "shatters <- throws_suzy" in out

    def test_preempted_thrower_not_a_cause(self, files, capsys):
        code = main([
            "cause", files["suzy_billy.cpl"],
            "--story", files["suzy_billy_suzy_first.story"],
            "--cause", "throws_billy", "--effect", "shatters",
        ])
        assert code == 0
        assert "verdict: NOT-CAUSE" in capsys.readouterr().out

    def test_needless_antidote_not_a_cause(self, files, capsys):
        code = main([
            "cause", files["bogus_prevention.cpl"],
            "--story", files["bogus_prevention_coh_first.story"],
            "--cause", "antidote", "--effect", "~death",
        ])
        assert code == 0
        assert "verdict: NOT-CAUSE" in capsys.readouterr().out

    def test_self_cause_exits_3(self, files):
        assert main([
            "cause", files["suzy_billy.cpl"],
            "--story", files["suzy_billy_suzy_first.story"],
            "--cause", "shatters", "--effect", "shatters",
        ]) == 3


class TestCauses:
    def test_two_throwers_possible_only(self, files, capsys):
        code = main([
            "causes", files["suzy_billy.cpl"],
            "--outcome", "throws_suzy,throws_billy,shatters",
            "--effect", "shatters",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "branches matching the outcome: 6" in out
        for line in out.splitlines():
            if line.startswith("throws_"):
                assert "possible" in line and "3/6" in line

    def test_self_defusing_threat_not_possible(self, files, capsys):
        code = main([
            "causes", files["hall_right.cpl"],
            "--outcome", "a,b,c,d,e", "--effect", "e", "--candidates", "c,a",
        ])
        assert code == 0
        out = capsys.readouterr().out
        rows = {line.split()[0]: line for line in out.splitlines() if line and line[0] in "ac"}
        assert "not-possible" in rows["c"]
        assert "certain" in rows["a"]

    def test_unreachable_outcome_warns(self, files, capsys):
        code = main([
            "causes", files["suzy_billy.cpl"],
            "--outcome", "throws_suzy,shatters",
            "--effect", "shatters",
            "--context", "throws_suzy,throws_billy",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "branches matching the outcome: 0" in captured.out
        assert "warning" in captured.err

    def test_short_literals_line_up_under_the_header(self, files, capsys):
        code = main([
            "causes", files["hall_right.cpl"],
            "--outcome", "a,b,c,d,e", "--effect", "e", "--candidates", "~c,a",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "branches matching the outcome: 3",
            "candidate  verdict       supporting",
            "~c         not-possible  0/3",
            "a          certain       3/3",
        ]

    def test_branches_are_counted_without_candidates(self, tmp_path, capsys):
        path = tmp_path / "fact.cpl"
        path.write_text("a.\n", encoding="utf-8")
        assert main(["causes", str(path), "--outcome", "a", "--effect", "a"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "branches matching the outcome: 1",
            "candidate  verdict       supporting",
        ]
        assert captured.err == ""


class TestUnknownQueryAtoms:
    """An atom outside the theory on either side of a causation query is
    a semantic error (exit 2), not a verdict."""

    @pytest.mark.parametrize("cause, effect", [("~zzz", "shatters"), ("zzz", "shatters"),
                                               ("throws_suzy", "zzz"), ("throws_suzy", "~zzz")])
    def test_cause(self, files, capsys, cause, effect):
        code = main([
            "cause", files["suzy_billy.cpl"],
            "--story", files["suzy_billy_suzy_first.story"],
            "--cause", cause, "--effect", effect,
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: query mentions unknown atoms: zzz\n"

    @pytest.mark.parametrize("extra", [["--effect", "shatters", "--candidates", "zzz,~zzz"],
                                       ["--effect", "~zzz"]])
    def test_causes(self, files, capsys, extra):
        code = main(["causes", files["suzy_billy.cpl"],
                     "--outcome", "throws_suzy,throws_billy,shatters", *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: query mentions unknown atoms: zzz\n"


class TestStreamedTree:
    def test_tree_lines_come_from_a_generator(self):
        theory = load_theory(corpus.read_text("suzy_billy.cpl"))
        tree = build_tree(theory, parse_context("throws_suzy,throws_billy"))
        lines = format_tree(tree)
        assert inspect.isgenerator(lines)
        assert next(lines) == "{throws_billy, throws_suzy}"
        assert next(lines) == "  r1 -> shatters (9/10)"


class TestTreeRows:
    def test_rows_match_the_distribution_on_the_corpus(self, tmp_path, capsys):
        footer = "distribution over final states:\n"
        for entry in corpus.entries():
            text = corpus.read_text(entry.theory_file)
            path = tmp_path / entry.theory_file
            path.write_text(text, encoding="utf-8")
            theory = load_theory(text)
            for context in (frozenset(), theory.exogenous):
                names = ",".join(sorted(a.name for a in context))
                assert main(["tree", str(path), "--context", names]) == 0
                rows = capsys.readouterr().out.split(footer)[1]
                dist = distribution(build_tree(theory, context))
                want = sorted((-mass, format_interp(interp)) for interp, mass in dist.items())
                assert rows == "".join(f"  {text}: {_prob_text(-mass)}\n" for mass, text in want)

    def test_lines_and_rows_of_a_deep_chain_match_the_references(self, tmp_path, capsys):
        depth = 300
        lines = ["exogenous a0."] + [f"a{i}:9/10 <- a{i - 1}." for i in range(1, depth + 1)]
        path = tmp_path / "chain.cpl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        theory = load_theory(path.read_text(encoding="utf-8"))
        context = parse_context("a0")
        tree = build_tree(theory, context)
        assert main(["tree", str(path), "--context", "a0"]) == 0
        shown, rows = capsys.readouterr().out.split("distribution over final states:\n")
        assert shown.splitlines() == _render_reference(tree)
        dist = distribution(tree)
        assert len(dist) == depth + 1
        want = sorted((-mass, format_interp(interp)) for interp, mass in dist.items())
        assert rows == "".join(f"  {text}: {_prob_text(-mass)}\n" for mass, text in want)
        assert main(["tree", str(path), "--context", "a0", "--dot"]) == 0
        assert capsys.readouterr().out == _dot_reference(tree)


class TestLongValues:
    """Exact values print in full, however many digits they have."""

    def test_chain_value_past_the_int_digit_limit(self, tmp_path, capsys):
        depth = 4400
        lines = ["exogenous a0."] + [f"a{i}:9/10 <- a{i - 1}." for i in range(1, depth + 1)]
        path = tmp_path / "chain.cpl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        limit = sys.get_int_max_str_digits()
        assert 0 < limit < depth
        assert main(["prob", str(path), "--query", f"a{depth}", "--context", "a0"]) == 0
        decimal = f"{float(Fraction(9, 10) ** depth):.6g}"
        assert capsys.readouterr().out == f"{9 ** depth}/1{'0' * depth} ({decimal})\n"
        assert sys.get_int_max_str_digits() == limit

    def test_value_below_the_float_range_keeps_its_digits(self, tmp_path, capsys):
        path = tmp_path / "tiny.cpl"
        path.write_text(f"a:1/3.\nb:1/1{'0' * 400} <- a.\n", encoding="utf-8")
        assert main(["prob", str(path), "--query", "b"]) == 0
        assert capsys.readouterr().out == f"1/3{'0' * 400} (3.33333e-401)\n"

    def test_probability_past_the_int_digit_limit_prints_in_full(self, tmp_path, capsys):
        # 4300 decimals parse (the numeral is at the limit), but the
        # reduced denominator 10**4300 has 4301 digits.
        path = tmp_path / "long.cpl"
        path.write_text("a:0." + "1" * 4300 + ".\n", encoding="utf-8")
        exact = f"{'1' * 4300}/1{'0' * 4300}"
        assert main(["validate", str(path)]) == 0
        assert f"a:{exact}." in capsys.readouterr().out
        assert main(["tree", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"  r1 -> a ({exact})\n" in out and f"  {{a}}: {exact} (0.111111)\n" in out
        assert main(["tree", str(path), "--dot"]) == 0
        assert f'[label="r1: a {exact}"]' in capsys.readouterr().out

    def test_head_sum_past_the_int_digit_limit_is_reported(self, tmp_path, capsys):
        q, r = 10 ** 2200 + 1, 10 ** 2200 + 3
        path = tmp_path / "sum.cpl"
        path.write_text(f"a:{q - 1}/{q}; b:{r - 1}/{r}.\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        total = Fraction(q - 1, q) + Fraction(r - 1, r)
        assert total.denominator == q * r  # 4401 digits
        err = capsys.readouterr().err
        assert f"head probabilities sum to {Decimal(total.numerator)}/{Decimal(q * r)} > 1" in err

    def test_decimal_text(self):
        assert _prob_text(Fraction(1, 100000)) == "1/100000 (1e-05)"
        assert _prob_text(Fraction(2, 3)) == "2/3 (0.666667)"
        assert _prob_text(Fraction(1)) == "1 (1)"
        # float(...) would give 1.49998e-320 here, and 0 further down.
        assert _prob_text(Fraction(3, 2 * 10 ** 320)) == f"3/2{'0' * 320} (1.5e-320)"
        assert _prob_text(Fraction(1, 10 ** 5000)).endswith(" (1e-5000)")
