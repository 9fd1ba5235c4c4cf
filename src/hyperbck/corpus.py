"""Brute-force model generators: the ground truth for every property suite.

``enumerate_hyper_bck`` walks every total table over a small carrier and
keeps the ones satisfying the axioms.  HK3 says that every t in x*y is
below x, that is O is in t*x, so the zero bits of a table decide which
masks each of its cells may hold.  The walk runs over the zero patterns
(which cells contain O); for each one it takes the product of the cells'
allowed masks, so it reaches exactly the tables that satisfy HK3, each
once.  Every such table gets the full fail-fast check, so the restriction
affects speed only, never the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product, repeat
from typing import Iterable, Iterator, Sequence

from .core import Carrier, HyperBCK, InputError, hk_axioms_hold_raw, iter_bits
from .fuzzy import FuzzyHyperBCK, _membership_failures, _membership_pairs, fuzzy_value

MAX_EXHAUSTIVE_SIZE = 3
_MAX_CANONICAL_SIZE = 8

_CORPUS_LABELS = ("O", "a", "b")


@dataclass(frozen=True, slots=True)
class ModelCorpus:
    size: int
    models: tuple[HyperBCK, ...]
    up_to_iso: bool

    def __len__(self) -> int:
        return len(self.models)

    def __iter__(self):
        return iter(self.models)


@lru_cache(maxsize=MAX_EXHAUSTIVE_SIZE)
def _search_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """All axiom-satisfying tables on carrier 0..n-1 with zero 0, in order.

    Cached, so the full and the up-to-iso corpus of one size share a search.
    """
    size = n * n
    masks = range(1, 1 << n)
    found: list[tuple[int, ...]] = []
    # zeros[x*n + y] says whether O is in x*y; every table has one such pattern.
    for zeros in product((False, True), repeat=size):
        # HK3: row x may only use the t with O in t*x.
        down = [sum(1 << t for t in range(n) if zeros[t * n + x]) for x in range(n)]
        cells = [
            [m for m in masks if not m & ~down[pos // n] and (m & 1) == zeros[pos]]
            for pos in range(size)
        ]
        for table in product(*cells):
            if hk_axioms_hold_raw(n, 0, table):
                found.append(table)
    found.sort()
    return tuple(found)


def _relabel_plan(n: int, perm: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``perm`` as bit images of the new indices, and the source cell of each target cell."""
    sources = [0] * (n * n)
    for x in range(n):
        for y in range(n):
            sources[perm[x] * n + perm[y]] = x * n + y
    return tuple(1 << p for p in perm), tuple(sources)


@lru_cache(maxsize=8)
def _relabel_plans(n: int, zero: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The plans of every zero-fixing relabeling of size ``n`` but the identity.

    There are (n-1)! of them, so sizes past ``_MAX_CANONICAL_SIZE`` are refused.
    """
    if n > _MAX_CANONICAL_SIZE:
        raise InputError(f"canonical forms are limited to sizes up to {_MAX_CANONICAL_SIZE}")
    perms = permutations([i for i in range(n) if i != zero])
    return tuple(_relabel_plan(n, [*p[:zero], zero, *p[zero:]]) for p in perms)[1:]


def _apply_plan(table: Sequence[int], plan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    bits, sources = plan
    out = []
    for pos in sources:
        mask = 0
        for t in iter_bits(table[pos]):
            mask |= bits[t]
        out.append(mask)
    return tuple(out)


def relabel_table(n: int, table: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """Apply an element relabeling ``perm`` (old index -> new index) to a table."""
    return _apply_plan(table, _relabel_plan(n, perm))


def canonical_table(n: int, zero: int, table: Sequence[int]) -> tuple[int, ...]:
    """The least relabeling of ``table`` over all zero-fixing permutations.

    The identity gives the table itself; the other candidates come from the
    relabeling plans cached per size and zero.
    """
    return min([tuple(table), *(_apply_plan(table, plan) for plan in _relabel_plans(n, zero))])


def canonical_form(alg: HyperBCK) -> tuple[int, int, tuple[int, ...]]:
    """Encoding of the canonical zero-fixing relabeling (iso-class invariant)."""
    n = len(alg.carrier)
    return (n, alg.zero, canonical_table(n, alg.zero, alg.table))


@lru_cache(maxsize=4 * MAX_EXHAUSTIVE_SIZE)
def enumerate_hyper_bck(n: int, up_to_iso: bool = False) -> ModelCorpus:
    """Every hyper BCK-algebra on an ``n``-element carrier with fixed zero.

    Labels are O, a, b; zero is O.  With ``up_to_iso`` only canonical
    representatives of zero-fixing relabeling classes are kept.  Refuses
    sizes beyond the exhaustive range.
    """
    if not 1 <= n <= MAX_EXHAUSTIVE_SIZE:
        raise InputError(
            f"exhaustive enumeration is limited to sizes 1..{MAX_EXHAUSTIVE_SIZE}"
        )
    carrier = Carrier(_CORPUS_LABELS[:n], 0)
    tables = _search_tables(n)
    if up_to_iso:
        tables = [t for t in tables if canonical_table(n, 0, t) == t]
    return ModelCorpus(n, tuple(HyperBCK(carrier, t) for t in tables), up_to_iso)


def chain_example(k: int) -> FuzzyHyperBCK:
    """The graded chain on {1, .., k} with zero 1 and mu(x) = 1/x.

    The operation follows the worked bounded-interval family:
    x*y is {1..x} when x <= y, {2..y} when x > y != 1, and {x} when y = 1.
    """
    if k < 1:
        raise InputError("chain length must be at least 1")
    labels = tuple(str(i) for i in range(1, k + 1))
    carrier = Carrier(labels, 0)
    table = [0] * (k * k)
    for x in range(1, k + 1):
        for y in range(1, k + 1):
            if y == 1:
                mask = 1 << (x - 1)
            elif x <= y:
                mask = (1 << x) - 1
            else:
                mask = ((1 << y) - 1) & ~1
            table[(x - 1) * k + (y - 1)] = mask
    alg = HyperBCK(carrier, table)
    return FuzzyHyperBCK(alg, tuple(Fraction(1, x) for x in range(1, k + 1)))


def _weak_orders(n: int, levels: int) -> Iterator[tuple[int, ...]]:
    """Every weak order of ``n`` elements with at most ``levels`` levels, each once.

    An order is its dense rank vector: a map of the elements onto ``0..k-1``.
    """
    for ranks in product(range(min(n, levels)), repeat=n):
        if len(set(ranks)) == max(ranks) + 1:
            yield ranks


def enumerate_fuzzy_assignments(
    alg: HyperBCK, grid: Iterable[int | str | Fraction]
) -> list[FuzzyHyperBCK]:
    """All membership maps into ``grid`` satisfying the fuzzy inequality.

    Deterministic: assignments are produced in lexicographic order of the
    grid as given, element by element in carrier order, duplicates included.
    The inequality only ever compares degrees, so the membership kernel runs
    once per weak order of the elements with at most as many levels as the
    grid has distinct values.  A passing order with k levels takes every
    increasing choice of k distinct values, each at every grid position that
    holds it; sorting the position tuples restores the grid order.
    """
    values = [fuzzy_value(v) for v in grid]
    if not values:
        raise InputError("value grid must be non-empty")
    rank_of = {v: r for r, v in enumerate(sorted(set(values)))}
    levels: list[list[int]] = [[] for _ in rank_of]  # the grid positions of each distinct value
    for p, v in enumerate(values):
        levels[rank_of[v]].append(p)
    pairs = _membership_pairs(alg.table)
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for order in _weak_orders(len(alg.carrier), len(levels)):
        if next(_membership_failures(pairs, order), None) is None:
            for chosen in combinations(levels, max(order) + 1):
                found.extend(zip(product(*[chosen[r] for r in order]), repeat(order)))
    found.sort()  # positions are distinct, so the orders are never compared
    return [
        FuzzyHyperBCK._ranked(alg, tuple(map(values.__getitem__, pos)), order)
        for pos, order in found
    ]
