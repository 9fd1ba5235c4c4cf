"""Fuzzy membership structure on a hyper BCK-algebra.

Membership degrees are exact rationals (``fractions.Fraction``), never
floats: level-set boundaries and the defining inequality

    min over t in x*y of mu(t)  >=  min(mu(x), mu(y))

hinge on exact comparisons.  On a finite carrier the infimum over a cell is
a minimum, which is what the checks below compute.

Degrees are exact; comparisons within one structure run on ranks.  The
inequality, the collapse checks and the level list read only the weak order
of mu, so each structure carries a rank vector (equal ranks for equal
degrees, ordered as the degrees are) and those checks compare small ints,
once per algebra and rank vector in bounded caches.  Wherever two structures meet (fuzzy homs, products, quotients) the exact
degrees are compared.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Any, Iterable, Iterator, Sequence

from .core import (
    HyperBCK,
    InfoCheck,
    InputError,
    ValidationReport,
    Violation,
    iter_bits,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def fuzzy_value(value: int | str | Fraction, denominator: int | None = None) -> Fraction:
    """An exact membership degree: the one rule every degree passes.

    Accepts a Fraction (returned as it is), an int, a string like ``"2/3"``
    or ``"1"``, or a numerator with an int ``denominator``.  Anything else,
    floats included, is refused with ``mu-syntax``; a degree outside
    [0, 1] with ``mu-range``.
    """
    if denominator is not None or not isinstance(value, Fraction):
        try:
            if not isinstance(value, (int, str, Fraction)):
                raise TypeError("a degree is an int, a string or a Fraction")
            value = Fraction(value, denominator)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad membership value {value!r}: {exc}", "mu-syntax") from None
    if not ZERO <= value <= ONE:
        raise InputError(f"membership value {value} outside [0, 1]", "mu-range")
    return value


def format_fuzzy(value: Fraction) -> str:
    """Canonical text form: bare integer for 0 and 1, otherwise ``p/q``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True, slots=True)
class FuzzyHyperBCK:
    """A hyper BCK-algebra paired with a total membership map.

    ``mu`` is indexed by carrier position.  Construction checks totality and
    passes each degree through :func:`fuzzy_value`; whether the membership
    inequality holds is the business of :func:`validate_fuzzy`, so violating
    structures can be built and reported.
    The rank vector of ``mu`` and its cut masks are kept apart from equality,
    hashing and repr; they are filled on first use unless a builder knows the ranks.
    """

    alg: HyperBCK
    mu: tuple[Fraction, ...]
    _rank_cache: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _cut_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels, mu = self.alg.carrier.labels, tuple(self.mu)
        if len(mu) != len(labels):
            raise InputError("membership map must cover every carrier element", "mu-incomplete", "mu")
        degrees = []
        for lab, value in zip(labels, mu):
            try:
                degrees.append(fuzzy_value(value))
            except InputError as exc:
                raise InputError(str(exc), exc.code, f"mu[{lab!r}]") from None
        object.__setattr__(self, "mu", tuple(degrees))

    @classmethod
    def _trusted(
        cls, alg: HyperBCK, mu: tuple[Fraction, ...], ranks: tuple[int, ...] | None = None
    ) -> FuzzyHyperBCK:
        """Build from degrees already checked, with ranks order-isomorphic to them if known."""
        fz = object.__new__(cls)
        for name, value in (("alg", alg), ("mu", mu), ("_rank_cache", ranks), ("_cut_cache", None)):
            object.__setattr__(fz, name, value)
        return fz

    def _ranks(self) -> tuple[int, ...]:
        """Ranks of ``mu``: ``ranks[i] <= ranks[j]`` exactly when ``mu[i] <= mu[j]``."""
        ranks = self._rank_cache
        if ranks is None:
            rank_of = {v: r for r, v in enumerate(sorted(set(self.mu)))}
            ranks = tuple(rank_of[v] for v in self.mu)
            object.__setattr__(self, "_rank_cache", ranks)
        return ranks

    @classmethod
    def from_map(cls, alg: HyperBCK, mu: dict[str, int | str | Fraction]) -> FuzzyHyperBCK:
        """Build from a label -> degree dict; refusals are located at ``mu`` or ``mu['x']``."""
        labels = alg.carrier.labels
        missing = set(labels) - set(mu)
        if missing:
            raise InputError(f"mu missing {sorted(missing)}", "mu-incomplete", "mu")
        extra = set(mu) - set(labels)
        if extra:
            raise InputError(f"mu names unknown labels {sorted(extra)}", "unknown-label", "mu")
        return cls(alg, tuple(mu[lab] for lab in labels))

    def mu_of(self, label: str) -> Fraction:
        return self.mu[self.alg.carrier.index(label)]

    def _cuts(self) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
        """The sorted levels, and the cut mask at each followed by the empty one past the top."""
        if self._cut_cache is None:
            ranks = self._ranks()
            order, cuts = _cut_masks(ranks)
            by_rank = dict(zip(ranks, self.mu))
            object.__setattr__(self, "_cut_cache", (tuple(map(by_rank.__getitem__, order)), cuts))
        return self._cut_cache

    def alpha_cut_mask(self, alpha: Fraction) -> int:
        """The mask of ``{x : mu(x) >= alpha}``: the cut at the first level not below alpha."""
        levels, cuts = self._cuts()
        return cuts[bisect_left(levels, alpha)]

    def alpha_cut(self, alpha: int | str | Fraction) -> frozenset[str]:
        """The level set ``{x : mu(x) >= alpha}``; may be empty for high alpha."""
        return self.alg.carrier.labels_of(self.alpha_cut_mask(fuzzy_value(alpha)))

    def cut_levels(self) -> tuple[Fraction, ...]:
        """Sorted distinct membership values; cuts are constant between them."""
        return self._cuts()[0]

    def restrict(self, subset: Iterable[str]) -> FuzzyHyperBCK:
        """The fuzzy subalgebra on a star-closed subset, with inherited mu."""
        return self.restrict_mask(self.alg.carrier.mask_of(subset))

    def restrict_mask(self, mask: int) -> FuzzyHyperBCK:
        sub = self.alg.restrict_mask(mask)
        if sub is self.alg:  # the whole carrier
            return self
        bits = iter_bits(mask)
        ranks = self._ranks()
        return FuzzyHyperBCK._trusted(
            sub, tuple(self.mu[i] for i in bits), tuple(ranks[i] for i in bits)
        )


@lru_cache(maxsize=1 << 10)
def _cut_masks(ranks: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The distinct ranks in increasing order, and the cut mask at each followed by 0.

    Cached on the rank vector, since every structure with one weak order of mu shares them.
    """
    order = sorted(set(ranks))
    return tuple(order), (*(sum(1 << i for i, r in enumerate(ranks) if r >= s) for s in order), 0)


@lru_cache(maxsize=1 << 8)
def _membership_pairs(table: tuple[int, ...]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Every pair (x, y) of a table whose cell can fail the inequality, with the cell's elements.

    A cell {x} or {y} holds the smaller of mu(x) and mu(y), so it never fails
    and is left out.  Cached per table, since every structure on one algebra
    reads the same pairs.
    """
    n = isqrt(len(table))
    return tuple(
        (x, y, cell)
        for x in range(n)
        for y in range(n)
        if (cell := iter_bits(table[x * n + y])) not in ((x,), (y,))
    )


def _membership_failures(
    pairs: tuple[tuple[int, int, tuple[int, ...]], ...], mu: Sequence[Any]
) -> Iterator[tuple[int, int, Any, Any]]:
    """Yield ``(x, y, got, bound)`` for every pair where the inequality fails.

    ``got`` is the minimum of mu over x*y and ``bound`` is min(mu(x), mu(y)).
    ``mu`` may hold any totally ordered values: exact degrees, or their ranks.
    """
    for x, y, cell in pairs:
        bound = mu[x] if mu[x] <= mu[y] else mu[y]
        for t in cell:
            if mu[t] < bound:
                yield x, y, min(mu[t] for t in cell), bound
                break


def fuzzy_condition_holds(alg: HyperBCK, mu: Sequence[Any]) -> bool:
    """Fail-fast check of the membership inequality over all pairs."""
    return next(_membership_failures(_membership_pairs(alg.table), mu), None) is None


@lru_cache(maxsize=1 << 8)  # as many tables as the pairs cache, which this one reads
def _membership_verdict(
    table: tuple[int, ...], zero: int, ranks: tuple[int, ...]
) -> tuple[tuple[tuple[int, int, int, int], ...], bool, bool, bool]:
    """What the membership checks read of mu's weak order, as ranks.

    The failures ``(x, y, got, bound)`` of the inequality, whether mu is
    maximal at zero, whether it is monotone along the hyperorder, and whether
    it is constant.  Cached on the table, the zero and the rank vector: the
    structures of one algebra with one weak order of mu share every answer.
    """
    n = len(ranks)
    failures = tuple(_membership_failures(_membership_pairs(table), ranks))
    monotone = all(
        ranks[pos // n] <= ranks[pos % n] for pos, cell in enumerate(table) if cell >> zero & 1
    )
    top = max(ranks)
    return failures, ranks[zero] == top, monotone, min(ranks) == top


def validate_fuzzy(fz: FuzzyHyperBCK) -> ValidationReport:
    """Check the membership inequality on all pairs, with all witnesses.

    The report also carries informational checks: maximality of mu at the
    zero element, and the two collapse properties (order-monotone mu is
    constant; mu(O) = 0 forces mu = 0).  These are consequences, so on a
    validated algebra they can only fail if the main inequality fails.
    """
    alg = fz.alg
    labels = alg.carrier.labels
    ranks = fz._ranks()
    failures, zero_max, _, _ = _membership_verdict(alg.table, alg.zero, ranks)
    degree = dict(zip(ranks, fz.mu))
    violations = [
        Violation(
            "MU",
            (labels[x], labels[y]),
            f"min mu over x*y is {format_fuzzy(degree[got])} < {format_fuzzy(degree[bound])}",
        )
        for x, y, got, bound in failures
    ]

    info = [InfoCheck("zero-max", zero_max, f"mu at zero is {format_fuzzy(fz.mu[alg.zero])}")]
    collapse = check_collapse_properties(fz)
    if collapse.monotone_applies:
        info.append(
            InfoCheck(
                "collapse-monotone",
                bool(collapse.constant_holds),
                "order-monotone mu must be constant",
            )
        )
    if collapse.zero_applies:
        info.append(
            InfoCheck(
                "collapse-zero",
                bool(collapse.vanishes_holds),
                "mu(zero) = 0 must force mu = 0",
            )
        )
    return ValidationReport(not violations, tuple(violations), tuple(info))


@dataclass(frozen=True, slots=True)
class CollapseVerdict:
    """Which collapse hypotheses applied to an instance, and their outcomes.

    ``monotone_applies``: mu is monotone along the hyperorder (x<y implies
    mu(x) <= mu(y)); its conclusion is that mu is constant at mu(zero).
    ``zero_applies``: mu(zero) = 0; its conclusion is that mu vanishes.
    Conclusion fields are None when the hypothesis does not apply.
    """

    monotone_applies: bool
    constant_holds: bool | None
    zero_applies: bool
    vanishes_holds: bool | None


def check_collapse_properties(fz: FuzzyHyperBCK) -> CollapseVerdict:
    """Which collapse hypotheses hold for ``fz``, and whether mu is then constant.

    Monotonicity and constancy read mu's weak order, through the membership
    verdict that :func:`validate_fuzzy` reads too; only the hypothesis
    mu(zero) = 0 reads the exact degree.
    """
    alg = fz.alg
    _, _, monotone, constant = _membership_verdict(alg.table, alg.zero, fz._ranks())
    # both conclusions say that mu is constant: at mu(zero), or at 0 = mu(zero)
    zero_applies = fz.mu[alg.zero] == ZERO
    return CollapseVerdict(
        monotone, constant if monotone else None, zero_applies, constant if zero_applies else None
    )


@dataclass(frozen=True, slots=True)
class CutVerdict:
    """Whether a subalgebra equals some level set, and at which level.

    ``claim_holds`` records, for this instance, the claimed equivalence
    between being a fuzzy subalgebra and being a level set.  Since any
    star-closed subset with inherited mu satisfies the membership
    inequality, the equivalence holds exactly when ``is_cut`` does; it is
    reported, not asserted, because constant mu on an algebra with a proper
    subalgebra is a counterexample.
    """

    is_cut: bool
    alpha: Fraction | None
    claim_holds: bool


def equals_some_alpha_cut(fz: FuzzyHyperBCK, subset: Iterable[str]) -> CutVerdict:
    """Test whether a subalgebra equals a level set at some level.

    Only the minimum m of mu over the subset S needs trying: every member of
    S lies in the cut at m, and if some cut at alpha equals S then alpha <= m,
    so every element outside S is below alpha and hence below m.
    """
    mask = fz.alg.carrier.mask_of(subset)
    fz.alg._require_subalgebra(mask)
    alpha = min(fz.mu[i] for i in iter_bits(mask))
    if fz.alpha_cut_mask(alpha) == mask:
        return CutVerdict(True, alpha, True)
    return CutVerdict(False, None, False)
