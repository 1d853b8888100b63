"""Seeded random theories for the order-invariance and property suites.

Bodies only mention atoms strictly below every head atom in a fixed
ordering, so the dependency graph is acyclic no matter where negation
lands; every draw validates and every execution run resolves each law.
``random_theory`` draws tiny theories over six atoms; ``structured_theory``
draws 10 to 40 laws from the shapes the engine is tuned for.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from cplogic.core import Atom, CPLaw, HeadAlternative, Literal, Theory, validate_theory

SEED = 20250810
ATOM_NAMES = ("a", "b", "c", "d", "e", "f")
_SIZES = (1, 2, 3, 4, 5)
_SIZE_WEIGHTS = (15, 25, 25, 20, 15)


def random_theory(rng: random.Random) -> tuple[Theory, frozenset]:
    """One validated theory with at most 5 laws and 6 atoms, plus a context."""
    n_atoms = rng.randint(2, 6)
    atoms = [Atom(name) for name in ATOM_NAMES[:n_atoms]]
    n_exo = rng.randint(0, min(2, n_atoms - 1))
    exogenous = atoms[:n_exo]
    endogenous = atoms[n_exo:]

    laws = []
    for _ in range(rng.choices(_SIZES, weights=_SIZE_WEIGHTS)[0]):
        if len(endogenous) >= 2 and rng.random() < 0.3:
            pair = rng.sample(endogenous, 2)
            k1 = rng.randint(1, 4)
            k2 = rng.randint(1, 6 - k1)
            head = (
                HeadAlternative(pair[0], Fraction(k1, 6)),
                HeadAlternative(pair[1], Fraction(k2, 6)),
            )
        else:
            target = rng.choice(endogenous)
            head = (HeadAlternative(target, Fraction(rng.randint(1, 6), 6)),)
        floor = min(atoms.index(alt.atom) for alt in head)
        body = tuple(
            Literal(atoms[i], rng.random() < 0.65)
            for i in range(floor)
            if rng.random() < 0.5
        )
        laws.append(CPLaw(head, body))

    context = frozenset(a for a in exogenous if rng.random() < 0.7)
    return validate_theory(Theory(tuple(laws), frozenset(exogenous))), context


def _law(head, body=(), prob=Fraction(1)) -> CPLaw:
    return CPLaw((HeadAlternative(head, prob),), tuple(body))


def structured_theory(rng: random.Random) -> tuple[Theory, frozenset]:
    """One validated, acyclic theory of 10 to 40 laws, plus a context.

    Blocks are drawn in turn, each over atoms of its own: a chain
    ``xI <- xI-1`` hung off an earlier atom, a noisy-or block (causes
    ``cI:1/2.`` and ``e:1/2 <- cI.``), a negation ladder (``b0:1/2.``
    and ``bK:1/2 <- ~bK-1.``), a block of throwers ``s:1/2 <- tI.`` over
    exogenous ``tI``, most of them in the context, or a block of coins
    ``aI:1/2.``. Some laws also get a negated edge to an atom of an
    earlier block, so every body looks only backwards. A law is
    probabilistic only while the theory has some of its budget of 10
    chances left, and deterministic after that, which keeps most full
    trees to a few thousand nodes.
    """
    want = rng.randint(10, 40)
    laws: list = []
    exogenous: list = []
    context: list = []
    earlier: list = []  # atoms that blocks drawn so far make true or read
    budget = 10

    def prob(p=Fraction(1, 2)):
        nonlocal budget
        if budget > 0 and rng.random() < 0.7:
            budget -= 1
            return p
        return Fraction(1)

    def negated_edge(besides=None):
        atom = rng.choice(earlier) if earlier and rng.random() < 0.2 else besides
        return [] if atom == besides else [Literal(atom, False)]

    block = 0
    while len(laws) < want:
        block += 1
        shape = rng.choice(("chain", "noisy_or", "ladder", "throwers", "coins"))
        made: list = []
        if shape == "chain":
            previous = rng.choice(earlier) if earlier else None
            for i in range(rng.randint(2, 8)):
                atom = Atom(f"x{block}_{i}")
                body = [Literal(previous)] if previous is not None else []
                laws.append(_law(atom, body + negated_edge(previous), prob(Fraction(9, 10))))
                made.append(atom)
                previous = atom
        elif shape == "noisy_or":
            effect = Atom(f"e{block}")
            causes = [Atom(f"c{block}_{i}") for i in range(rng.randint(2, 3))]
            for cause in causes:
                laws.append(_law(cause, negated_edge(), prob()))
            for cause in causes:
                laws.append(_law(effect, [Literal(cause)], prob()))
            made += causes + [effect]
        elif shape == "ladder":
            rungs = [Atom(f"b{block}_{i}") for i in range(rng.randint(2, 6))]
            laws.append(_law(rungs[0], negated_edge(), prob()))
            for below, rung in zip(rungs, rungs[1:]):
                laws.append(_law(rung, [Literal(below, False)], prob()))
            made += rungs
        elif shape == "throwers":
            effect = Atom(f"s{block}")
            throwers = [Atom(f"t{block}_{i}") for i in range(rng.randint(2, 4))]
            for thrower in throwers:
                laws.append(_law(effect, [Literal(thrower)] + negated_edge(), prob()))
            exogenous += throwers
            context += [t for t in throwers if rng.random() < 0.8]
            made += throwers + [effect]
        else:
            coins = [Atom(f"a{block}_{i}") for i in range(rng.randint(1, 3))]
            for coin in coins:
                laws.append(_law(coin, negated_edge(), prob()))
            made += coins
        earlier += made
    theory = validate_theory(Theory(tuple(laws[:want]), frozenset(exogenous)))
    return theory, frozenset(context)


def random_cases(count: int, seed: int = SEED) -> list[tuple[Theory, frozenset]]:
    rng = random.Random(seed)
    return [random_theory(rng) for _ in range(count)]


def all_policies(theory: Theory):
    return itertools.permutations(law.label for law in theory.laws)
