"""Shared fixtures: enumerated corpora, the membership grid, worked chains, product and
subalgebra pairs."""

from __future__ import annotations

from fractions import Fraction

import random

import pytest

from hyperbck import Carrier, FuzzyHyperBCK, HyperBCK
from hyperbck.category import product
from hyperbck.corpus import (
    chain_example,
    enumerate_fuzzy_assignments,
    enumerate_hyper_bck,
    relabel_table,
)

# Membership values used by every property suite.  A test parameter, not a
# library constraint: rationals with non-trivial cut structure.
GRID = tuple(
    Fraction(*pair) for pair in ((0, 1), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (1, 1))
)

_ASSIGNMENT_CACHE: dict = {}
_ZERO, _ONE = Fraction(0), Fraction(1)


def grid_assignments(alg):
    """Def-5-satisfying grid assignments for a corpus model, cached."""
    key = alg.encode()
    if key not in _ASSIGNMENT_CACHE:
        _ASSIGNMENT_CACHE[key] = tuple(enumerate_fuzzy_assignments(alg, GRID))
    return _ASSIGNMENT_CACHE[key]


def cut_masks(fz):
    """The level set at each of ``fz.cut_levels()``, in the same order, read from its ranks."""
    at_rank = {}
    for i, r in enumerate(fz._ranks()):
        at_rank[r] = at_rank.get(r, 0) | 1 << i
    masks, cut = [], 0
    for r in sorted(at_rank, reverse=True):  # each cut adds one rank to the one above
        cut |= at_rank[r]
        masks.append(cut)
    return tuple(reversed(masks))


def cuts_at_levels_and_ends(fz):
    """``(alpha, cut mask)`` for alpha in the levels plus {0, 1}, in increasing alpha.

    Read from the structure's ranks: every degree is at least 0, so the cut at
    0 is the whole carrier, and the cut at 1 is empty unless 1 is a level.
    """
    levels = fz.cut_levels()
    cuts = list(zip(levels, cut_masks(fz)))
    if levels[0] != 0:
        cuts.insert(0, (_ZERO, fz.alg.carrier.full_mask))
    if levels[-1] != 1:
        cuts.append((_ONE, 0))
    return cuts


def zero_moved_to(alg, k):
    """``alg`` with its zero and element ``k`` swapped, labels travelling along."""
    n = alg.size
    perm = list(range(n))
    perm[alg.zero], perm[k] = k, alg.zero
    labels = [""] * n
    for old, new in enumerate(perm):
        labels[new] = alg.carrier.labels[old]
    return HyperBCK(Carrier(tuple(labels), k), relabel_table(n, alg.table, perm))


def zero_mu(alg: HyperBCK) -> FuzzyHyperBCK:
    return FuzzyHyperBCK(alg, (_ZERO,) * alg.size)


@pytest.fixture(scope="session")
def corpus1():
    return enumerate_hyper_bck(1)


@pytest.fixture(scope="session")
def corpus2():
    return enumerate_hyper_bck(2)


@pytest.fixture(scope="session")
def corpus3():
    return enumerate_hyper_bck(3)


@pytest.fixture(scope="session")
def corpus3_iso():
    return enumerate_hyper_bck(3, up_to_iso=True)


@pytest.fixture(scope="session")
def corpus_le2(corpus1, corpus2):
    return tuple(corpus1) + tuple(corpus2)


@pytest.fixture(scope="session")
def corpus_le3(corpus_le2, corpus3):
    return corpus_le2 + tuple(corpus3)


@pytest.fixture(scope="module")
def c2():
    return chain_example(2)


@pytest.fixture(scope="session")
def chains():
    return {k: chain_example(k) for k in range(1, 7)}


@pytest.fixture(scope="module")
def subalgebra_pairs(corpus3):
    """Seeded (source, target) pairs whose source is a subalgebra of 6 to 8 elements of the
    product of two size-3 models and whose target is each of the two factors, then each with
    the zero moved on both ends.  Sources past five elements put cells in row x = 5, and the
    maps that follow a projection on all but a few elements break the hom equation in a few
    cells only.  The literal scan of all 3**n maps stays small."""
    rng = random.Random(21)
    pairs = []
    for _ in range(20):
        a, b = rng.sample(corpus3.models, 2)
        whole = product([zero_mu(a), zero_mu(b)]).object.alg
        masks = [k for k in range(1, 1 << whole.size) if 6 <= k.bit_count() <= 8]
        subs = [whole.restrict_mask(k) for k in masks if whole.is_subalgebra_mask(k)]
        if subs:
            src = rng.choice(subs)
            pairs += [(src, a), (src, b)]
    moved = [
        (zero_moved_to(src, rng.randrange(1, src.size)), zero_moved_to(dst, rng.randrange(1, 3)))
        for src, dst in pairs
    ]
    return pairs + moved


@pytest.fixture(scope="module")
def product_pairs(corpus2, corpus3):
    """Seeded (source, target) pairs of 4-, 6- and 9-element products, then each with the
    zero moved on both ends.  The first products share seeded factors, so hom-sets are not
    all trivial; among the 4-element pairs of random factors, some have maps that break the
    hom equation in one cell only.  Each pair keeps the literal scan of all m**n maps small."""
    rng = random.Random(20)
    a2, b2 = rng.sample(corpus2.models, 2)
    a3, b3 = rng.sample(corpus3.models, 2)

    def prod(*factors):
        return product([zero_mu(f) for f in factors]).object.alg

    def prod4():
        return prod(rng.choice(corpus2.models), rng.choice(corpus2.models))

    pairs = [(prod4(), prod4()) for _ in range(40)]
    pairs += [
        (prod(a2, b2), prod(a2, b2)),
        (prod(a2, a2), prod(a2, a2)),
        (prod(a2, b2), prod(a3, a2)),
        (prod(a2, a2), prod(a3, b3)),
        (prod(a2, a3), prod(a2, b2)),
        (prod(a2, a3), prod(a3, a2)),
        (prod(b3, b2), prod(b3, b2)),
        (prod(a3, b3), prod(a2, a2)),
    ]
    moved = [
        (zero_moved_to(src, rng.randrange(1, src.size)), zero_moved_to(dst, rng.randrange(1, dst.size)))
        for src, dst in pairs
    ]
    return pairs + moved
