"""Command-line front end.

Subcommands: ``validate``, ``prob``, ``tree``, ``cause``, ``causes``.
Exit codes: 0 success, 1 parse error, 2 semantic or validation error,
3 causation-query precondition error.
"""

from __future__ import annotations

import argparse
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction

from .causation import (
    CauseQuery,
    actual_cause,
    classify_causes,
)
from .core import Theory, fraction_text, validate_theory
from .engine import (
    build_tree,
    distribution_bits,
    enumerate_branches,
    prob_formula,
    replay_story,
)
from .errors import (
    ParseError,
    QueryError,
    SemanticError,
    ValidationError,
)
from .textio import (
    export_tree_dot,
    format_interp,
    format_law,
    format_tree,
    interp_formatter,
    parse_context,
    parse_formula,
    parse_literal,
    parse_story,
    parse_theory,
    serialize_theory,
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        err.reason = f"{err.reason} in {path}"
        raise


def _decimal(value: Fraction) -> str:
    """Six significant digits, as ``float`` formats them. Below the normal
    float range, where a float loses digits and then flushes to 0, they
    are rounded exactly from the fraction instead."""
    if value.denominator == 1:
        return fraction_text(value)
    approx = float(value)
    if approx >= sys.float_info.min:
        return f"{approx:.6g}"
    exact = Context(prec=6, Emin=MIN_EMIN, Emax=MAX_EMAX).divide(
        Decimal(value.numerator), Decimal(value.denominator)
    )
    return f"{exact:.6g}"


def _prob_text(value: Fraction) -> str:
    return f"{fraction_text(value)} ({_decimal(value)})"


def _warn_symbolic(theory: Theory) -> None:
    if theory.has_symbolic_probabilities:
        print(
            "warning: theory annotates some outcomes with '*'; reported "
            "probabilities use the 1/2 placeholder, not known values",
            file=sys.stderr,
        )


def _print_issues(err: ValidationError, law_lines: tuple[int, ...]) -> None:
    for issue in err.issues:
        where = "" if issue.law_index is None else f" (line {law_lines[issue.law_index]})"
        print(f"error[{issue.code}]{where}: {issue.message}", file=sys.stderr)


def cmd_validate(theory: Theory, args) -> int:
    width = max([len("label")] + [len(law.label) for law in theory.laws])
    print(f"{'label'.ljust(width)}  law")
    for law in theory.laws:
        print(f"{law.label.ljust(width)}  {format_law(law, include_label=False)}")
    if theory.exogenous:
        print("exogenous: " + ", ".join(sorted(theory.exogenous)))
    print(f"ok: {len(theory.laws)} laws, {len(theory.vocabulary)} atoms")
    return 0


def cmd_prob(theory: Theory, args) -> int:
    formula = parse_formula(args.query)
    context = parse_context(args.context)
    _warn_symbolic(theory)
    print(_prob_text(prob_formula(theory, context, formula)))
    return 0


def cmd_tree(theory: Theory, args) -> int:
    context = parse_context(args.context)
    policy = [label.strip() for label in args.policy.split(",")] if args.policy else None
    tree = build_tree(theory, context, policy=policy)
    if args.dot:
        sys.stdout.write(export_tree_dot(tree))
        return 0
    _warn_symbolic(theory)
    interp_text = interp_formatter(tree.theory.numbering)
    for line in format_tree(tree, interp_text):
        print(line)
    print("distribution over final states:")
    rows = sorted((-mass, interp_text(bits)) for bits, mass in distribution_bits(tree).items())
    for mass, text in rows:
        print(f"  {text}: {_prob_text(-mass)}")
    return 0


def cmd_cause(theory: Theory, args) -> int:
    story = parse_story(_read(args.story), theory)
    branch = replay_story(theory, story)
    query = CauseQuery(parse_literal(args.cause), parse_literal(args.effect))
    verdict = actual_cause(theory, branch, query)
    print(f"cause:   {query.cause}")
    print(f"effect:  {query.effect}")
    print(f"verdict: {'CAUSE' if verdict.is_cause else 'NOT-CAUSE'}")
    print(f"counterfactual probability of the effect: {_prob_text(verdict.effect_prob)}")
    if args.explain:
        print(f"effect first holds at state {verdict.cut_index} of the branch")
        print("relevant laws:")
        for line in serialize_theory(verdict.relevant).splitlines():
            print(f"  {line}")
        print("counterfactual theory (story fixed, cause prevented):")
        for line in serialize_theory(verdict.counterfactual).splitlines():
            print(f"  {line}")
        print(f"counterfactual context: {format_interp(verdict.context)}")
        print("counterfactual tree:")
        cf_tree = build_tree(verdict.counterfactual, verdict.context)
        for line in format_tree(cf_tree):
            print(f"  {line}")
    return 0


def cmd_causes(theory: Theory, args) -> int:
    outcome = parse_context(args.outcome)
    effect = parse_literal(args.effect)
    context = parse_context(args.context) if args.context is not None else outcome & theory.exogenous
    candidates = None
    if args.candidates is not None:
        candidates = [parse_literal(tok) for tok in args.candidates.split(",")]
    verdicts = classify_causes(theory, outcome, effect, candidates, context)
    if verdicts:
        branches = next(iter(verdicts.values())).branches
    else:  # no candidate to read the count from
        branches = sum(1 for _ in enumerate_branches(theory, context, target=outcome))
    if branches == 0:
        print(
            "warning: no branch reaches the given outcome; every candidate "
            "is reported as not-possible",
            file=sys.stderr,
        )
    print(f"branches matching the outcome: {branches}")
    width = max([len("candidate")] + [len(str(lit)) for lit in verdicts])
    print(f"{'candidate'.ljust(width)}  {'verdict'.ljust(12)}  supporting")
    for lit, verdict in verdicts.items():
        kind = verdict.classification.value
        print(
            f"{str(lit).ljust(width)}  {kind.ljust(12)}  "
            f"{verdict.supporting}/{verdict.branches}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cplogic",
        description=(
            "Evaluate ground CP-logic theories into exact probability "
            "trees and decide actual causation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a theory file")
    p.add_argument("theory")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("prob", help="exact probability of a formula")
    p.add_argument("theory")
    p.add_argument("--query", required=True, help="propositional formula")
    p.add_argument("--context", default="", help="comma-separated true exogenous atoms")
    p.set_defaults(handler=cmd_prob)

    p = sub.add_parser("tree", help="print one execution tree")
    p.add_argument("theory")
    p.add_argument("--context", default="")
    p.add_argument("--policy", default=None, help="comma-separated label priority")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    p.set_defaults(handler=cmd_tree)

    p = sub.add_parser("cause", help="complete-information actual-cause check")
    p.add_argument("theory")
    p.add_argument("--story", required=True, help="story file replayed as the branch")
    p.add_argument("--cause", required=True, help="literal: atom or ~atom")
    p.add_argument("--effect", required=True, help="literal: atom or ~atom")
    p.add_argument("--explain", action="store_true", help="dump the witness")
    p.set_defaults(handler=cmd_cause)

    p = sub.add_parser("causes", help="partial-information classification")
    p.add_argument("theory")
    p.add_argument("--outcome", required=True, help="observed final true atoms")
    p.add_argument("--effect", required=True)
    p.add_argument("--context", default=None, help="override the exogenous context")
    p.add_argument("--candidates", default=None, help="comma-separated literals")
    p.set_defaults(handler=cmd_causes)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every subcommand's theory is loaded here, so its validation
        # issues are reported with their source lines.
        doc = parse_theory(_read(args.theory))
        return args.handler(validate_theory(doc.theory), args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except ValidationError as err:
        _print_issues(err, doc.law_lines)
        return 2
    except SemanticError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except QueryError as err:
        print(f"query error: {err}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
