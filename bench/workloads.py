"""Seeded input generator for the cplogic benchmark.

``make_plan(workload, seed)`` returns the set-up of one run as plain
JSON data: the theory and story texts that the timed set-up parses,
the CLI input files of the self-check, and a small self-check set. The
same seed always gives the same plan; its digest is recorded with the
results.

``make_round(plan, index)`` returns round ``index`` of the op stream.
Each round holds the workload's fixed mix of op sizes in a seeded
order, so every seed loads the program with the same size distribution
and only the concrete inputs change. A round is drawn from its own
random stream, keyed by workload, seed and index, so the stream never
ends and never wraps around. Every op also names its atoms with a
fresh seeded prefix and brings its own theory text, so no op of a run
repeats an earlier one, however many rounds the run gets through. A
run executes whole rounds, which keeps the latency percentiles from
depending on where the clock happened to stop.

Each round's mix puts the median op in the middle of one group of
equal-sized ops, so that the median latency does not jump between two
sizes when the machine's speed drifts during a run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("prob-wide", "causes-partial", "cli-deep")

#: prob-wide: m + c per op. Two ops below and two above a group of four
#: at 11, so the median op is in the middle of the 11 group.
PROB_WIDE_ROUND = (9, 10, 11, 11, 11, 11, 12, 12)
#: prob-wide: thrown throwers per op; c = size - m independent coins.
PROB_WIDE_THROWN = (3, 4, 5)
#: prob-wide: idle throwers (laws never applicable) on top of the thrown.
PROB_WIDE_IDLE = (0, 1, 2)

#: causes-partial: (n throwers, m thrown) per op. Three ops below and
#: three above a group of four at (4, 4), so the median op is in the
#: middle of that group.
CAUSES_ROUND = ((3, 3), (4, 3), (5, 3), (4, 4), (4, 4), (4, 4), (4, 4), (5, 4), (5, 4), (6, 4))

#: cli-deep: one op per subcommand in each depth band, the depth drawn
#: uniformly within the band. The last band is the cap alone, so every
#: round builds the largest tree and every run reaches the same peak
#: memory. Past about 1000 laws the engine's recursive tree builder
#: raises RecursionError, so the cap is 600.
CHAIN_BANDS = ((300, 399), (400, 499), (600, 600))
#: cli-deep: ``cause`` and ``explain`` run this often at the cap. Seven
#: ops of a round are faster than these and six slower, so the median
#: op is in the middle of this group of equal ops.
CAP_CAUSE_REPEAT = 3
#: cli-deep: depths of the chains and stories the set-up parses.
CHAIN_SETUP_DEPTHS = (300, 450, 600)
CLI_SUBCOMMANDS = ("validate", "prob", "cause", "explain", "tree")
PREFIX_LETTERS = "bcdfghjklmnpqrstvwxz"


def make_plan(workload: str, seed: int) -> dict:
    """The set-up inputs of one run and the self-check.

    For the library workloads the set-up parses the theories of round
    0; for ``cli-deep``, whose ops parse their own input, it parses the
    chains and stories at ``CHAIN_SETUP_DEPTHS``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    plan = {
        "workload": workload,
        "seed": seed,
        "theories": {},
        "stories": {},
        "files": {},
    }
    if workload == "cli-deep":
        prefix = atom_prefix(random.Random(f"{workload}:{seed}"))
        for d in CHAIN_SETUP_DEPTHS:
            plan["theories"][f"det{d}"] = chain_theory(prefix, d, False)
            plan["theories"][f"prob{d}"] = chain_theory(prefix, d, True)
            plan["stories"][f"det{d}"] = {"theory": f"det{d}", "text": chain_story(prefix, d)}
    else:
        ops, _ = make_round(plan, 0)
        plan["theories"] = {f"op{k}": op["text"] for k, op in enumerate(ops)}
    plan["selfcheck"] = selfcheck_ops(plan["files"])
    plan["digest"] = digest(plan)
    return plan


def make_round(plan: dict, index: int) -> tuple[list[dict], dict]:
    """(ops, CLI input files) of round ``index``; the same for every run of a seed."""
    workload = plan["workload"]
    rng = random.Random(f"{workload}:{plan['seed']}:round{index}")
    files: dict = {}
    if workload == "prob-wide":
        sizes = list(PROB_WIDE_ROUND)
        rng.shuffle(sizes)
        ops = [_prob_wide_op(rng, s, rng.choice(PROB_WIDE_THROWN), rng.choice(PROB_WIDE_IDLE),
                             atom_prefix(rng))
               for s in sizes]
    elif workload == "causes-partial":
        sizes = list(CAUSES_ROUND)
        rng.shuffle(sizes)
        ops = [_causes_op(rng, n, m, atom_prefix(rng)) for n, m in sizes]
    else:
        kinds = [(band, sub) for band in CHAIN_BANDS for sub in CLI_SUBCOMMANDS]
        kinds += [(CHAIN_BANDS[-1], sub) for sub in ("cause", "explain")] * (CAP_CAUSE_REPEAT - 1)
        rng.shuffle(kinds)
        ops = []
        for k, ((lo, hi), sub) in enumerate(kinds):
            d, prefix = rng.randint(lo, hi), atom_prefix(rng)
            ops.append(cli_op(sub, d, prefix, _chain_inputs(files, prefix, d, tag=f"op{k}_")))
    return ops, files


def digest(plan: dict) -> str:
    """sha256 over the set-up inputs and the self-check, independent of key order."""
    body = {k: plan[k] for k in ("theories", "stories", "files", "selfcheck")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def atom_prefix(rng: random.Random) -> str:
    """Four seeded consonants that start every atom name of one op."""
    return "".join(rng.choice(PREFIX_LETTERS) for _ in range(4))


# ---------------------------------------------------------------------------
# Theory texts


def thrower_theory(t: int, c: int, rng: random.Random, p: str = "") -> str:
    """t throwers ``Pshatters:1/2 <- PtI.`` plus c coins ``PcI:1/2.``, P = ``p``.

    The law lines come in a seeded order; the throwers' bodies are
    exogenous and the coins have none, so the order changes the tree's
    shape but not its size.
    """
    laws = [f"{p}shatters:1/2 <- {p}t{i}." for i in range(1, t + 1)]
    laws += [f"{p}c{i}:1/2." for i in range(1, c + 1)]
    rng.shuffle(laws)
    exo = "exogenous " + ", ".join(f"{p}t{i}" for i in range(1, t + 1)) + "."
    return "\n".join([exo] + laws) + "\n"


def chain_theory(prefix: str, d: int, prob: bool) -> str:
    """``p0`` exogenous and ``pI <- pI-1.`` (or ``pI:9/10 <- pI-1.``).

    The laws stay in chain order: the engine's overestimate fixpoint
    makes one pass per out-of-order link, so a shuffled chain would
    measure the shuffle rather than the depth.
    """
    ann = ":9/10" if prob else ""
    lines = [f"exogenous {prefix}0."]
    lines += [f"{prefix}{i}{ann} <- {prefix}{i - 1}." for i in range(1, d + 1)]
    return "\n".join(lines) + "\n"


def chain_story(prefix: str, d: int) -> str:
    """The only complete story of the deterministic chain."""
    lines = [f"context {prefix}0."]
    lines += [f"r{i} -> {prefix}{i}." for i in range(1, d + 1)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Formulas: an atom name, ["not", f], ["and", f, g] or ["or", f, g]


def random_formula(atoms: list[str], rng: random.Random, budget: int = 3):
    """A read-once formula over the atoms, operators nested at most ``budget`` deep."""
    if len(atoms) == 1:
        if budget >= 1 and rng.random() < 0.4:
            return ["not", atoms[0]]
        return atoms[0]
    need = math.ceil(math.log2(len(atoms)))
    negate = budget > need and rng.random() < 0.3
    if negate:
        budget -= 1
    mid = len(atoms) // 2
    node = [
        rng.choice(("and", "or")),
        random_formula(atoms[:mid], rng, budget - 1),
        random_formula(atoms[mid:], rng, budget - 1),
    ]
    return ["not", node] if negate else node


def formula_text(f) -> str:
    if isinstance(f, str):
        return f
    if f[0] == "not":
        inner = formula_text(f[1])
        return "!" + (inner if isinstance(f[1], str) or f[1][0] == "not" else f"({inner})")
    sym = " & " if f[0] == "and" else " | "
    parts = [formula_text(g) if isinstance(g, str) or g[0] == "not" else f"({formula_text(g)})"
             for g in f[1:]]
    return sym.join(parts)


# ---------------------------------------------------------------------------
# Workloads


def _prob_wide_op(rng: random.Random, size: int, m: int, idle: int, p: str) -> dict:
    c = size - m
    t = m + idle
    text = thrower_theory(t, c, rng, p)
    thrown = sorted(rng.sample(range(1, t + 1), m))
    coins = [f"{p}c{i}" for i in rng.sample(range(1, c + 1), rng.choice((1, 2, 3)))]
    atoms = [f"{p}shatters"] + coins
    rng.shuffle(atoms)
    formula = random_formula(atoms, rng)
    return {
        "kind": "prob",
        "text": text,
        "t": t,
        "m": m,
        "c": c,
        "effect": f"{p}shatters",
        "context": ",".join(f"{p}t{i}" for i in thrown),
        "formula": formula,
        "query": formula_text(formula),
    }


def _causes_op(rng: random.Random, n: int, m: int, p: str) -> dict:
    text = thrower_theory(n, 0, rng, p)
    throwers = [f"{p}t{i}" for i in range(1, n + 1)]
    thrown = sorted(rng.sample(throwers, m))
    outcome = thrown + [f"{p}shatters"]
    rng.shuffle(outcome)
    return {
        "kind": "causes",
        "text": text,
        "n": n,
        "m": m,
        "throwers": throwers,
        "thrown": thrown,
        "outcome": ",".join(outcome),
        "effect": f"{p}shatters",
    }


def _chain_inputs(files: dict, prefix: str, d: int, tag: str = "") -> dict:
    """Add the depth-d chain files to ``files``; returns their names."""
    names = {
        "det": f"{tag}det.cpl",
        "prob": f"{tag}prob.cpl",
        "story": f"{tag}det.story",
    }
    files[names["det"]] = chain_theory(prefix, d, False)
    files[names["prob"]] = chain_theory(prefix, d, True)
    files[names["story"]] = chain_story(prefix, d)
    return names


def cli_op(sub: str, d: int, prefix: str, names: dict) -> dict:
    argv = {
        "validate": ["validate", names["det"]],
        "prob": ["prob", names["prob"], "--query", f"{prefix}{d}", "--context", f"{prefix}0"],
        "cause": ["cause", names["det"], "--story", names["story"],
                  "--cause", f"{prefix}0", "--effect", f"{prefix}{d}"],
        "explain": ["cause", names["det"], "--story", names["story"],
                    "--cause", f"{prefix}0", "--effect", f"{prefix}{d}", "--explain"],
        "tree": ["tree", names["prob"], "--context", f"{prefix}0"],
    }[sub]
    return {"kind": "cli", "sub": sub, "d": d, "argv": argv}


def selfcheck_ops(files: dict) -> list[dict]:
    """The smallest instance of every family, for the untimed check.

    The CLI files are added to ``files``.
    """
    rng = random.Random("selfcheck")
    n, m = min(CAUSES_ROUND)
    ops = [_prob_wide_op(rng, min(PROB_WIDE_ROUND), min(PROB_WIDE_THROWN), 0, ""),
           _causes_op(rng, n, m, "")]
    d = CHAIN_BANDS[0][0]
    names = _chain_inputs(files, "a", d, tag="check_")
    ops += [cli_op(sub, d, "a", names) for sub in CLI_SUBCOMMANDS]
    return ops
