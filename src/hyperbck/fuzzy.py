"""Fuzzy membership structure on a hyper BCK-algebra.

Membership degrees are exact rationals (``fractions.Fraction``), never
floats: level-set boundaries and the defining inequality

    min over t in x*y of mu(t)  >=  min(mu(x), mu(y))

hinge on exact comparisons.  On a finite carrier the infimum over a cell is
a minimum, which is what the checks below compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    """Coerce to an exact membership degree, enforcing the [0, 1] range.

    Accepts a Fraction, an int, or a string like ``"2/3"`` or ``"1"``.
    """
    if denominator is not None:
        value = Fraction(value, denominator)  # type: ignore[arg-type]
    elif isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad membership value {value!r}: {exc}") from None
    else:
        value = Fraction(value)
    if not ZERO <= value <= ONE:
        raise InputError(f"membership value {value} outside [0, 1]")
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
    range only; whether the membership inequality holds is the business of
    :func:`validate_fuzzy`, so violating structures can be built and reported.
    """

    alg: HyperBCK
    mu: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", tuple(self.mu))
        if len(self.mu) != len(self.alg.carrier):
            raise InputError("membership map must cover every carrier element")
        for v in self.mu:
            if not ZERO <= v <= ONE:
                raise InputError(f"membership value {v} outside [0, 1]")

    @classmethod
    def from_map(cls, alg: HyperBCK, mu: dict[str, int | str | Fraction]) -> FuzzyHyperBCK:
        missing = set(alg.carrier.labels) - set(mu)
        if missing:
            raise InputError(f"membership map missing elements {sorted(missing)}")
        extra = set(mu) - set(alg.carrier.labels)
        if extra:
            raise InputError(f"membership map names unknown elements {sorted(extra)}")
        return cls(alg, tuple(fuzzy_value(mu[lab]) for lab in alg.carrier.labels))

    def mu_of(self, label: str) -> Fraction:
        return self.mu[self.alg.carrier.index(label)]

    def alpha_cut_mask(self, alpha: Fraction) -> int:
        mask = 0
        for i, v in enumerate(self.mu):
            if v >= alpha:
                mask |= 1 << i
        return mask

    def alpha_cut(self, alpha: int | str | Fraction) -> frozenset[str]:
        """The level set ``{x : mu(x) >= alpha}``; may be empty for high alpha."""
        return self.alg.carrier.labels_of(self.alpha_cut_mask(fuzzy_value(alpha)))

    def cut_levels(self) -> tuple[Fraction, ...]:
        """Sorted distinct membership values; cuts are constant between them."""
        return tuple(sorted(set(self.mu)))

    def restrict(self, subset: Iterable[str]) -> FuzzyHyperBCK:
        """The fuzzy subalgebra on a star-closed subset, with inherited mu."""
        return self.restrict_mask(self.alg.carrier.mask_of(subset))

    def restrict_mask(self, mask: int) -> FuzzyHyperBCK:
        return FuzzyHyperBCK(
            self.alg.restrict_mask(mask),
            tuple(self.mu[i] for i in iter_bits(mask)),
        )


def _membership_pairs(alg: HyperBCK) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Every pair (x, y) whose cell can fail the inequality, with the cell's elements.

    A cell {x} or {y} holds the smaller of mu(x) and mu(y), so it never fails
    and is left out.
    """
    n = len(alg.carrier)
    return tuple(
        (x, y, cell)
        for x in range(n)
        for y in range(n)
        if (cell := iter_bits(alg.cell(x, y))) not in ((x,), (y,))
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
    return next(_membership_failures(_membership_pairs(alg), mu), None) is None


def validate_fuzzy(fz: FuzzyHyperBCK) -> ValidationReport:
    """Check the membership inequality on all pairs, with all witnesses.

    The report also carries informational checks: maximality of mu at the
    zero element, and the two collapse properties (order-monotone mu is
    constant; mu(O) = 0 forces mu = 0).  These are consequences, so on a
    validated algebra they can only fail if the main inequality fails.
    """
    alg = fz.alg
    labels = alg.carrier.labels
    violations = [
        Violation(
            "MU",
            (labels[x], labels[y]),
            f"min mu over x*y is {format_fuzzy(got)} < {format_fuzzy(bound)}",
        )
        for x, y, got, bound in _membership_failures(_membership_pairs(alg), fz.mu)
    ]

    info = [
        InfoCheck(
            "zero-max",
            all(fz.mu[alg.zero] >= v for v in fz.mu),
            f"mu at zero is {format_fuzzy(fz.mu[alg.zero])}",
        )
    ]
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
    alg = fz.alg
    n = len(alg.carrier)
    zbit_shift = alg.zero
    monotone = all(
        fz.mu[x] <= fz.mu[y]
        for x in range(n)
        for y in range(n)
        if alg.cell(x, y) >> zbit_shift & 1
    )
    constant = all(v == fz.mu[alg.zero] for v in fz.mu) if monotone else None
    zero_applies = fz.mu[alg.zero] == ZERO
    vanishes = all(v == ZERO for v in fz.mu) if zero_applies else None
    return CollapseVerdict(monotone, constant, zero_applies, vanishes)


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
