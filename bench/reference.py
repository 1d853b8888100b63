"""Closed-form answers for the benchmark's generated inputs.

Nothing here imports cplogic: every expected answer follows from the
shape of the generated theory alone, so an engine bug cannot hide in
its own reference.

* thrower/coin theories: ``shatters`` and the coins are independent,
  with P(shatters) = 1 - 2^-m for m thrown throwers and P(cI) = 1/2, so
  a formula's probability is a sum over the assignments of its atoms;
* n throwers with m thrown, outcome = thrown + shatters: the matching
  branches are the m! firing orders times the 2^m - 1 nonempty sets of
  throwers that hit, a thrown thrower is the cause exactly when it hits
  first, and a ``~tJ`` candidate never is;
* chains of depth d: the deterministic chain validates with d laws and
  d + 1 atoms and its one story makes p0 a cause of pD with
  counterfactual probability 0; the 9/10 chain reaches pD with
  (9/10)^d and its tree has one leaf per stopping point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

NINE_TENTHS = Fraction(9, 10)


def formula_atoms(f) -> set[str]:
    if isinstance(f, str):
        return {f}
    return set().union(*(formula_atoms(g) for g in f[1:]))


def eval_formula(f, true_atoms: set[str]) -> bool:
    if isinstance(f, str):
        return f in true_atoms
    if f[0] == "not":
        return not eval_formula(f[1], true_atoms)
    parts = (eval_formula(g, true_atoms) for g in f[1:])
    return all(parts) if f[0] == "and" else any(parts)


def prob_wide(op: dict) -> Fraction:
    """P(formula) over independent ``shatters`` and coin marginals."""
    marginal = {op["effect"]: 1 - Fraction(1, 2 ** op["m"])}
    atoms = sorted(formula_atoms(op["formula"]))
    total = Fraction(0)
    for bits in product((False, True), repeat=len(atoms)):
        weight = Fraction(1)
        for atom, value in zip(atoms, bits):
            p = marginal.get(atom, Fraction(1, 2))
            weight *= p if value else 1 - p
        if eval_formula(op["formula"], {a for a, v in zip(atoms, bits) if v}):
            total += weight
    return total


def causes_branches(op: dict) -> int:
    """Branches ending in the outcome: m! orders times 2^m - 1 hit sets."""
    return factorial(op["m"]) * (2 ** op["m"] - 1)


def causes_partial(op: dict) -> dict[str, tuple[str, int, int]]:
    """Candidate -> (classification, supporting, branches)."""
    m = op["m"]
    branches = causes_branches(op)
    supporting = factorial(m - 1) * (2 ** m - 1)
    expected = {t: ("possible", supporting, branches) for t in op["thrown"]}
    for t in op["throwers"]:
        if t not in op["thrown"]:
            expected[f"~{t}"] = ("not-possible", 0, branches)
    return expected


def actual_cause_calls(op: dict) -> int:
    """Every candidate is checked on every branch: n * m!(2^m - 1)."""
    return op["n"] * causes_branches(op)


def prob_wide_nodes(op: dict) -> int:
    """Every thrown thrower and every coin fires once on each path."""
    return 2 ** (op["m"] + op["c"] + 1) - 1


@lru_cache(maxsize=8)
def chain_leaves(d: int) -> tuple[tuple[int, str], ...]:
    """(true atoms, probability) per leaf of the 9/10 chain's tree."""
    leaves = [(k + 1, str(NINE_TENTHS ** k / 10)) for k in range(d)]
    leaves.append((d + 1, str(NINE_TENTHS ** d)))
    return tuple(sorted(leaves))


def _tree_leaves(stdout: str) -> tuple[tuple[int, str], ...]:
    head = "distribution over final states:\n"
    at = stdout.rfind(head)
    if at < 0:
        return ()
    leaves = []
    for line in stdout[at + len(head):].splitlines():
        interp, _, value = line.strip().partition("}: ")
        atoms = interp.lstrip("{")
        leaves.append((atoms.count(",") + 1 if atoms else 0, value.split(" (")[0]))
    return tuple(sorted(leaves))


def check_cli(op: dict, returncode: int, stdout: str) -> bool:
    """Does one CLI run print the closed-form answer?"""
    if returncode != 0:
        return False
    d, sub = op["d"], op["sub"]
    lines = stdout.splitlines()
    if sub == "validate":
        return bool(lines) and lines[-1] == f"ok: {d} laws, {d + 1} atoms"
    if sub == "prob":
        return len(lines) == 1 and lines[0].split(" (")[0] == str(NINE_TENTHS ** d)
    if sub in ("cause", "explain"):
        ok = ("verdict: CAUSE" in lines
              and "counterfactual probability of the effect: 0 (0)" in lines)
        return ok and (sub == "cause") != ("counterfactual tree:" in lines)
    if sub == "tree":
        return _tree_leaves(stdout) == chain_leaves(d)
    raise ValueError(f"unknown subcommand {sub!r}")


def check_library(op: dict, answer) -> bool:
    """Does a library answer, as plain data, equal the closed form?"""
    if op["kind"] == "prob":
        return answer == prob_wide(op)
    if op["kind"] == "causes":
        return answer == causes_partial(op)
    raise ValueError(f"not a library op: {op['kind']!r}")


def chain_nodes(d: int) -> int:
    """The 9/10 chain's tree: each of the d links fires or stops."""
    return 2 * d + 1
