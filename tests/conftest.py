"""Shared fixtures: enumerated corpora, the membership grid, worked chains."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hyperbck import Carrier, HyperBCK
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


@pytest.fixture(scope="session")
def chains():
    return {k: chain_example(k) for k in range(1, 7)}
