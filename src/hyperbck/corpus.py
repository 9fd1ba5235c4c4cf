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
from functools import lru_cache, partial
from itertools import combinations, compress, permutations, product, repeat
from typing import Iterable, Iterator, Sequence

from .core import PRODUCT_BOUND, Carrier, HyperBCK, InputError, _down_masks, _image_masks, _Kept
from .core import hk_axioms_hold_raw
from .fuzzy import FuzzyHyperBCK, _cut_data, _cut_masks, _membership_failures, _membership_pairs
from .fuzzy import fuzzy_value

MAX_EXHAUSTIVE_SIZE = 3
ASSIGNMENT_BOUND = 1 << 12  # maps into a grid one assignment table holds: 12 elements on {0, 1}
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
        down = _down_masks(n, 0, zeros)  # HK3: row x may only use the t with O in t*x
        cells = [
            [m for m in masks if not m & ~down[pos // n] and (m & 1) == zeros[pos]]
            for pos in range(size)
        ]
        for table in product(*cells):
            if hk_axioms_hold_raw(n, 0, table):
                found.append(table)
    found.sort()
    return tuple(found)


def _relabel_plan(n: int, perm: Sequence[int], image: Sequence[int]) -> tuple:
    """``image`` (entry m the image of mask m under ``perm``) and each target cell's source."""
    sources = [0] * (n * n)
    for x in range(n):
        for y in range(n):
            sources[perm[x] * n + perm[y]] = x * n + y
    return image, tuple(sources)


@lru_cache(maxsize=8)
def _relabel_plans(n: int, zero: int) -> tuple[tuple, ...]:
    """The plans of every zero-fixing relabeling of size ``n`` but the identity.

    There are (n-1)! of them, so sizes past ``_MAX_CANONICAL_SIZE`` are refused.  Each lists
    the ``_image_masks`` of its perm as bytes: 2**n masks of at most 8 bits, 256 at size 8."""
    if n > _MAX_CANONICAL_SIZE:
        message = f"canonical forms are limited to sizes up to {_MAX_CANONICAL_SIZE}"
        raise InputError(message, "too-large", "carrier")
    others = permutations([i for i in range(n) if i != zero])
    perms = [[*p[:zero], zero, *p[zero:]] for p in others][1:]  # the identity comes first
    images = (bytes(map(_image_masks(p).__getitem__, range(1 << n))) for p in perms)
    return tuple(_relabel_plan(n, p, image) for p, image in zip(perms, images))


def _apply_plan(table: Sequence[int], plan: tuple) -> tuple[int, ...]:
    image, sources = plan
    return tuple([image[table[pos]] for pos in sources])


def relabel_table(n: int, table: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """Apply an element relabeling ``perm`` (old index -> new index) to a table; refused with
    ``shape`` at ``perm`` unless ``perm`` is a permutation of ``range(n)``."""
    if len(perm) != n or set(perm) != set(range(n)):
        raise InputError(f"{list(perm)} is not a permutation of range({n})", "shape", "perm")
    return _apply_plan(table, _relabel_plan(n, perm, _image_masks(perm)))


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


def enumerate_hyper_bck(n: int, up_to_iso: bool = False) -> ModelCorpus:
    """Every hyper BCK-algebra on an ``n``-element carrier with fixed zero.

    Labels are O, a, b; zero is O.  With ``up_to_iso`` only canonical
    representatives of zero-fixing relabeling classes are kept.  Refuses
    sizes beyond the exhaustive range.  One process builds each corpus once,
    however the arguments are spelled.
    """
    return _corpus(n, bool(up_to_iso))


@lru_cache(maxsize=2 * MAX_EXHAUSTIVE_SIZE)
def _corpus(n: int, up_to_iso: bool) -> ModelCorpus:
    if not 1 <= n <= MAX_EXHAUSTIVE_SIZE:
        message = f"exhaustive enumeration is limited to sizes 1..{MAX_EXHAUSTIVE_SIZE}"
        raise InputError(message, "too-large" if n > MAX_EXHAUSTIVE_SIZE else "carrier", "carrier")
    carrier = Carrier(_CORPUS_LABELS[:n], 0)
    tables = _search_tables(n)
    if up_to_iso:
        tables = [t for t in tables if canonical_table(n, 0, t) == t]
    return ModelCorpus(n, tuple(HyperBCK(carrier, t) for t in tables), up_to_iso)


def chain_example(k: int) -> FuzzyHyperBCK:
    """The graded chain on {1, .., k} with zero 1 and mu(x) = 1/x, for k up to ``PRODUCT_BOUND``.

    The operation follows the worked bounded-interval family:
    x*y is {1..x} when x <= y, {2..y} when x > y != 1, and {x} when y = 1.
    """
    if k < 1:
        raise InputError("chain length must be at least 1", "carrier", "carrier")
    if k > PRODUCT_BOUND:
        raise InputError(f"chain length {k} exceeds {PRODUCT_BOUND}", "too-large", "carrier")
    labels = tuple(str(i) for i in range(1, k + 1))
    table = [  # element x is bit x - 1
        1 << x - 1 if y == 1 else (1 << x) - 1 if x <= y else (1 << y) - 2
        for x in range(1, k + 1) for y in range(1, k + 1)
    ]
    alg = HyperBCK(Carrier(labels, 0), table)
    return FuzzyHyperBCK(alg, tuple(Fraction(1, x) for x in range(1, k + 1)))


def _weak_orders(n: int, levels: int) -> Iterator[tuple[int, ...]]:
    """Every weak order of ``n`` elements with at most ``levels`` levels, each once.

    An order is its dense rank vector: a map of the elements onto ``0..k-1``.
    """
    for ranks in product(range(min(n, levels)), repeat=n):
        if len(set(ranks)) == max(ranks) + 1:
            yield ranks


@partial(_Kept, limit=ASSIGNMENT_BOUND, maxsize=64, weigh=lambda key, table: len(table[1]))
def _assignment_table(key: tuple) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple]:
    """The weak orders of ``n`` elements with at most as many levels as the grid has distinct
    values, and every map into the grid in the documented order, as its order's index and
    ``(degrees, ranks, cut data)``, for ``key`` = ``(n, *grid)``, the grid as integer ratios.

    An order with k levels takes every increasing choice of k distinct values, each at every
    grid position that holds it; sorting the position tuples gives the documented order.  The
    maps of one order and choice share their cut data, whose levels are the first grid
    position's value objects, and all of an order's maps share its rank vector.
    """
    n, values = key[0], [Fraction(p, q) for p, q in key[1:]]
    rank_of = {v: r for r, v in enumerate(sorted(set(values)))}
    levels: list[list[int]] = [[] for _ in rank_of]  # the grid positions of each distinct value
    for p, v in enumerate(values):
        levels[rank_of[v]].append(p)
    orders = tuple(_weak_orders(n, len(levels)))
    found: list[tuple[tuple[int, ...], tuple]] = []
    for i, order in enumerate(orders):
        cuts = _cut_masks(order)[1]
        for chosen in combinations(levels, max(order) + 1):
            cut = _cut_data(tuple(values[ps[0]] for ps in chosen), cuts)
            found.extend(zip(product(*[chosen[r] for r in order]), repeat((i, cut))))
    found.sort()  # positions are distinct, so nothing past them is compared
    ids = tuple(i for _, (i, _) in found)
    maps = tuple((tuple(map(values.__getitem__, pos)), orders[i], cut) for pos, (i, cut) in found)
    return orders, ids, maps


def enumerate_fuzzy_assignments(
    alg: HyperBCK, grid: Iterable[int | str | Fraction]
) -> list[FuzzyHyperBCK]:
    """All membership maps into ``grid`` satisfying the fuzzy inequality.

    Deterministic: assignments are produced in lexicographic order of the
    grid as given, element by element in carrier order, duplicates included.
    The inequality only ever compares degrees, so the membership kernel runs
    once per weak order of the elements with at most as many levels as the
    grid has distinct values, and a passing order keeps all its maps.  The
    orders and the maps, each with its ranks and cut data, are tabled once per
    carrier size and grid (see :func:`_assignment_table`), so structures on one
    grid share all but their algebra.  Refused with ``too-large`` before any
    work when the |grid|^n maps pass ``ASSIGNMENT_BOUND``.
    """
    grid, n = list(grid), len(alg.carrier)
    if not grid:
        raise InputError("value grid must be non-empty")
    if len(grid) ** n > ASSIGNMENT_BOUND:
        message = f"{len(grid)}^{n} maps into the grid exceed {ASSIGNMENT_BOUND}"
        raise InputError(message, "too-large", "carrier")
    ratios = (fuzzy_value(v).as_integer_ratio() for v in grid)
    orders, ids, maps = _assignment_table[(n, *ratios)]
    pairs = _membership_pairs[alg.table]
    passing = [next(_membership_failures(pairs, order), None) is None for order in orders]
    trusted = FuzzyHyperBCK._trusted
    return [
        trusted(alg, mu, ranks, cut)
        for mu, ranks, cut in compress(maps, map(passing.__getitem__, ids))
    ]
