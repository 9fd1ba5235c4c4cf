"""Finite hyper BCK-algebras: carriers, hyperoperation tables, axiom checking.

A hyperoperation sends each ordered pair of elements to a *non-empty subset*
of the carrier.  Subsets are stored as bitmasks over carrier indices, and a
set of cells as a mask over their table positions, so HK1 tests the cells
of a triple with one product and one AND; the public API speaks labels.

The axioms are tested in one place: ``_hk2_mismatch`` scans the HK2 plan and
``_past_hk2_failures`` yields the HK1, HK3 and HK4 failures of a table past it.
The reporting validator lists every failure both find; the fail-fast check runs
the same two and stops at the first, so the two verdicts cannot disagree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add, mul, or_
from typing import Callable, Iterable, Iterator, Sequence

PRODUCT_BOUND = 256  # the largest carrier built: 65,536 cells, the square of the carrier
AXIOM_CHECK_BOUND = 64  # its HK2 plan holds n*n*(n-1)/2 = 129,024 instances, about 21 MiB
HK2_PLAN_BOUND = 1 << 17  # instances the cached HK2 plans hold at once: one plan at 64 and more
RESTRICTIONS_KEPT = 16  # restrictions one algebra keeps; n elements have up to 2**(n-1) subalgebras


class InputError(ValueError):
    """Invalid input; a refusal with a stable ``code`` names the failing part in ``location``."""

    def __init__(self, message: str, code: str | None = None, location: str | None = None):
        super().__init__(message)
        self.code, self.location = code, location


class ClaimViolation(RuntimeError):
    """A documented guarantee of a construction failed on a concrete instance.

    Carries the claim identifier and a witness so the instance can be
    reported rather than silently miscomputed.
    """

    def __init__(self, claim: str, witness: object, message: str = ""):
        self.claim = claim
        self.witness = witness
        super().__init__(message or f"{claim}: witness {witness!r}")


@lru_cache(maxsize=1 << 12)
def iter_bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask`` in increasing order.

    Cached, because the axiom and hom checks ask for the bits of the same
    few cell masks millions of times; the bound keeps a long-lived process
    that sees large masks from growing without limit.
    """
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


@dataclass(frozen=True, slots=True)
class Carrier:
    """An ordered finite set of distinct element labels with a designated zero."""

    labels: tuple[str, ...]
    zero_index: int

    def __post_init__(self) -> None:
        labels = self.labels
        named = isinstance(labels, (list, tuple)) and all(isinstance(s, str) and s for s in labels)
        if not (named and labels):
            message = "carrier must be a non-empty list of non-empty strings"
            raise InputError(message, "carrier", "carrier")
        object.__setattr__(self, "labels", tuple(labels))
        if len(set(labels)) != len(labels):
            raise InputError("carrier labels must be distinct", "carrier", "carrier")
        if not 0 <= self.zero_index < len(labels):
            raise InputError(f"zero index {self.zero_index} out of range", "zero-unknown", "zero")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def zero_label(self) -> str:
        return self.labels[self.zero_index]

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown element label {label!r}", "unknown-label") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def labels_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.labels[i] for i in iter_bits(mask))


@dataclass(frozen=True, slots=True)
class HyperBCK:
    """A finite carrier with a total subset-valued operation table.

    ``table`` is row-major over carrier indices: the cell for ``(x, y)`` sits
    at ``x * n + y`` and is a non-empty bitmask.  Construction checks only
    this structural shape; the axioms are the validator's job.
    The restrictions built from it are kept apart from equality, hashing and
    repr, up to ``RESTRICTIONS_KEPT`` of them.
    """

    carrier: Carrier
    table: tuple[int, ...]
    _restrictions: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        n = len(self.carrier)
        if len(self.table) != n * n:
            message = f"table has {len(self.table)} of {n * n} required cells"
            raise InputError(message, "table-incomplete", "table")
        full = self.carrier.full_mask
        for pos, cell in enumerate(self.table):
            if cell == 0 or cell & ~full:
                x, y = (self.carrier.labels[i] for i in divmod(pos, n))
                at = f"table[{f'{x},{y}'!r}]"
                if cell == 0:
                    raise InputError("empty hyperoperation cell", "empty-cell", at)
                raise InputError(f"table cell at position {pos} out of range", "unknown-label", at)

    @classmethod
    def from_sets(
        cls,
        labels: Sequence[str],
        zero: str,
        cells: dict[tuple[str, str], Iterable[str]],
    ) -> HyperBCK:
        """Build from a ``(x, y) -> subset`` mapping given with labels.

        Refusals are located at ``carrier``, ``zero``, ``table['x,y']`` or ``table``.
        """
        carrier = Carrier(labels, 0)  # a bad carrier is refused before its zero is sought
        index = {lab: i for i, lab in enumerate(carrier.labels)}  # labels are strings
        if not (isinstance(zero, str) and zero in index):
            raise InputError(f"zero {zero!r} is not a carrier label", "zero-unknown", "zero")
        carrier = Carrier(carrier.labels, index[zero])
        masks = {}
        for (x, y), subset in cells.items():
            for lab in (x, y, *subset):
                if not (isinstance(lab, str) and lab in index):
                    at = f"table[{f'{x},{y}'!r}]"
                    raise InputError(f"label {lab!r} not in carrier", "unknown-label", at)
            masks[x, y] = reduce(or_, [1 << index[lab] for lab in subset], 0)
        labels = carrier.labels  # a missing cell leaves the table short, and so refused
        return cls(carrier, [masks[x, y] for x in labels for y in labels if (x, y) in masks])

    @property
    def size(self) -> int:
        return len(self.carrier)

    @property
    def zero(self) -> int:
        return self.carrier.zero_index

    def cell(self, x: int, y: int) -> int:
        return self.table[x * len(self.carrier) + y]

    # -- label-level operations ------------------------------------------

    def star(self, x: str, y: str) -> frozenset[str]:
        """The hyperoperation value ``x * y`` as a set of labels."""
        c = self.carrier
        return c.labels_of(self.cell(c.index(x), c.index(y)))

    def set_star(self, a: Iterable[str], b: Iterable[str]) -> frozenset[str]:
        """Union of ``x * y`` over ``x in a``, ``y in b`` (both non-empty)."""
        c = self.carrier
        return c.labels_of(self.set_star_masks(c.mask_of(a), c.mask_of(b)))

    def hyper_order(self, x: str, y: str) -> bool:
        """``x < y`` in the hyperorder: the zero element belongs to ``x * y``."""
        c = self.carrier
        return bool(self.cell(c.index(x), c.index(y)) >> self.zero & 1)

    def set_order(self, a: Iterable[str], b: Iterable[str]) -> bool:
        """``A < B``: every element of A is below some element of B."""
        c = self.carrier
        return self.set_order_masks(c.mask_of(a), c.mask_of(b))

    def is_subalgebra(self, subset: Iterable[str]) -> bool:
        """True iff the subset contains zero and is closed under the operation."""
        mask = self.carrier.mask_of(subset)
        return self.is_subalgebra_mask(mask)

    def restrict(self, subset: Iterable[str]) -> HyperBCK:
        """The subalgebra on ``subset`` with the inherited table and label order."""
        return self.restrict_mask(self.carrier.mask_of(subset))

    # -- index/mask-level operations (used by the validators and oracles) --

    def set_star_masks(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            raise InputError("set arguments of the hyperoperation must be non-empty")
        return reduce(or_, (self.cell(x, y) for x in iter_bits(a) for y in iter_bits(b)))

    def set_order_masks(self, a: int, b: int) -> bool:
        if a == 0 or b == 0:
            raise InputError("set arguments of the hyperorder must be non-empty")
        dn = _down_masks(len(self.carrier), self.zero, self.table)
        return not a & ~reduce(or_, [dn[v] for v in iter_bits(b)])

    def is_subalgebra_mask(self, mask: int) -> bool:
        if mask == 0:
            raise InputError("a subalgebra candidate must be non-empty")
        return bool(mask >> self.zero & 1) and self._first_escape(mask) is None

    def _first_escape(self, mask: int) -> tuple[int, int, int] | None:
        """The first ``(x, y, t)`` with x, y in ``mask`` and t in x*y outside it."""
        n = len(self.carrier)
        for x in iter_bits(mask):
            row = x * n
            for y in iter_bits(mask):
                stray = self.table[row + y] & ~mask
                if stray:
                    return x, y, (stray & -stray).bit_length() - 1
        return None

    def _require_subalgebra(self, mask: int) -> None:
        """Refuse a mask without zero or not closed, naming its labels."""
        if not self.is_subalgebra_mask(mask):
            raise InputError(f"{sorted(self.carrier.labels_of(mask))!r} is not a subalgebra")

    def restrict_mask(self, mask: int) -> HyperBCK:
        """The subalgebra on ``mask`` (``self`` if whole); refused without zero or if not closed.

        A restriction built is kept on the algebra and returned again for the same mask,
        until ``RESTRICTIONS_KEPT`` are kept; a refusal is raised afresh on every call.
        """
        if mask == self.carrier.full_mask:
            return self
        kept = self._restrictions or {}
        if mask in kept:
            return kept[mask]
        self._require_subalgebra(mask)
        old = iter_bits(mask)
        bit = {o: 1 << i for i, o in enumerate(old)}  # element old[i] becomes i
        labels = tuple(self.carrier.labels[o] for o in old)
        table = [reduce(or_, map(bit.get, iter_bits(self.cell(x, y)))) for x in old for y in old]
        sub = HyperBCK(Carrier(labels, old.index(self.zero)), table)
        if len(kept) < RESTRICTIONS_KEPT:
            kept[mask] = sub
            object.__setattr__(self, "_restrictions", kept)
        return sub

    def encode(self) -> tuple[int, int, tuple[int, ...]]:
        """A hashable exact encoding (size, zero index, cell masks)."""
        return (len(self.carrier), self.zero, self.table)


@dataclass(frozen=True, slots=True)
class Violation:
    """One falsified axiom instance: axiom id plus the witnessing elements."""

    axiom: str
    witness: tuple[str, ...]
    detail: str = ""


@dataclass(frozen=True, slots=True)
class InfoCheck:
    """An informational (non-verdict) check carried along in a report."""

    check: str
    holds: bool
    detail: str = ""


@dataclass(frozen=True, slots=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]
    info: tuple[InfoCheck, ...] = ()

    def __post_init__(self) -> None:
        if self.passed != (not self.violations):
            raise InputError("report invariant: passed iff no violations")

    def witnesses(self, axiom: str) -> list[tuple[str, ...]]:
        return [v.witness for v in self.violations if v.axiom == axiom]


_TABLED_SIZE = 6  # past it a mask table fills entries on lookup instead of all 2**n


class _OnLookup(defaultdict):
    """A mask table that computes entry m as ``default_factory(m)`` and keeps 256 at most."""

    def __missing__(self, mask: int) -> object:
        value = self.default_factory(mask)
        if len(self) < 1 << 8:  # bounded, as the cached HK2 plans hold their gather lists
            self[mask] = value
        return value


def _mask_ors(
    parts: Sequence, join: Callable = or_, empty: object = 0, listed: bool = False
) -> list | _OnLookup:
    """Entry B joins ``parts[i]`` over the bits i of mask B in order (OR by default); past
    ``_TABLED_SIZE`` parts entries fill on lookup, unless all 2**n are ``listed``."""
    if len(parts) > _TABLED_SIZE and not listed:
        return _OnLookup(lambda b: reduce(join, [parts[i] for i in iter_bits(b)], empty))
    ors = [empty] * (1 << len(parts))
    for b in range(1, len(ors)):
        low = b & -b
        ors[b] = join(parts[low.bit_length() - 1], ors[b ^ low])
    return ors


def _image_masks(mapping: Sequence[int], listed: bool = False) -> list | _OnLookup:
    """Entry B is the image ``{mapping[t] : t in B}`` of mask B, for reading many masks."""
    return _mask_ors([1 << v for v in mapping], listed=listed)


_plan_instances = [0]  # instances in the HK2 plans built since the cache was last emptied


@lru_cache(maxsize=16)
def _hk2_plan(n: int, zero: int) -> tuple[tuple, ...]:
    """The HK2 instances ``(x, y, z, x*n + y, x*n + z, gz, gy)`` of size ``n``, y < z.

    ``gz[m]`` lists the positions ``t*n + z`` for t in mask m (``gy`` those of y), so
    (x*y)*z ORs the cells at ``gz[table[x*n + y]]``.  The zero's row comes last: by
    HK3 it holds only elements below zero, so it fails least often.  The cache holds at
    most ``HK2_PLAN_BOUND`` instances: a plan that would pass it empties the cache first,
    since the plans it holds are among those built since it was last emptied."""
    if n > AXIOM_CHECK_BOUND:
        message = f"axiom checks are limited to carriers of at most {AXIOM_CHECK_BOUND} elements"
        raise InputError(f"{message}, not {n}", "too-large", "carrier")
    if _plan_instances[0] + n * n * (n - 1) // 2 > HK2_PLAN_BOUND:
        _hk2_plan.cache_clear()
        _plan_instances[0] = 0
    gather = [_mask_ors([(t * n + z,) for t in range(n)], add, ()) for z in range(n)]
    plan = tuple(
        (x, y, z, x * n + y, x * n + z, gather[z], gather[y])
        for x in [*range(zero), *range(zero + 1, n), zero]
        for y in range(n) for z in range(y + 1, n)
    )
    _plan_instances[0] += len(plan)
    return plan


def _hk2_mismatch(table: Sequence[int], instances: Iterable[tuple]) -> tuple | None:
    """The next HK2 plan instance with unequal sides, as ``((x, y, z), (x*y)*z, (x*z)*y)``;
    each side ORs a gather list's cells.  On a shared plan iterator a scan resumes past its hit."""
    for x, y, z, xy, xz, gz, gy in instances:
        lhs = rhs = 0
        for p in gz[table[xy]]:
            lhs |= table[p]
        for p in gy[table[xz]]:
            rhs |= table[p]
        if lhs != rhs:
            return (x, y, z), lhs, rhs


@lru_cache(maxsize=1 << 10)  # up to _TABLED_SIZE, tables share their rows and down masks
def _tabled_ors(parts: tuple[int, ...]) -> tuple:
    return tuple(_mask_ors(parts))


@lru_cache(maxsize=16)
def _spread(n: int) -> list | _OnLookup:
    """Entry A has bit t*n per t in A: ``spread[A] * B`` marks the cells t*s, t in A, s in B."""
    return _mask_ors([1 << t * n for t in range(n)])


def _hk_failures(n: int, zero: int, table: tuple[int, ...], strict: bool = False) -> Iterator:
    """Yield every falsified axiom instance of a raw cell-mask table, cheapest first.

    Each item is ``(axiom, indices, lhs_mask, rhs_mask)``: for HK1 and HK2 the two sides at
    the triple; for HK3 ``{t}`` escaping x*H and ``{x}``; for HK4 ``{x}`` and ``{y}``.  HK2
    comes first, as (x, y, z) and then (x, z, y) with the sides swapped, from ``_hk2_mismatch``
    scans of one plan iterator; then ``_past_hk2_failures`` yields the rest."""
    instances = iter(_hk2_plan(n, zero))
    while hit := _hk2_mismatch(table, instances):
        (x, y, z), lhs, rhs = hit
        yield "HK2", (x, y, z), lhs, rhs
        yield "HK2", (x, z, y), rhs, lhs
    yield from _past_hk2_failures(n, zero, table, strict)


def _past_hk2_failures(n: int, zero: int, table: tuple[int, ...], strict: bool) -> Iterator:
    """HK1 per (x, y, z), HK3 per x and HK4 per pair if ``strict``, from position masks.

    HK1 at (x, y, z) asks that each cell t*s, t in x*z and s in y*z, lies in D = below[x*y],
    the elements below a member of x*y.  Those cells sit at the positions ``spread[x*z] *
    (y*z)``; ``bad[D]`` marks the positions whose cell leaves D, once per table and D.  Most
    pairs have D the whole carrier, which no cell leaves, and skip their z's.  A failing
    instance ORs its cells through the rows' OR tables (t*B per mask B), built on demand."""
    ors = _tabled_ors if n <= _TABLED_SIZE else _mask_ors
    dn = _down_masks(n, zero, table)
    below = ors(tuple(dn))
    spread = _spread(n)
    rows = [table[r : r + n] for r in range(0, n * n, n)]
    bad, rowstar = {(1 << n) - 1: 0}, []
    for x, xrow in enumerate(rows):
        for y, cxy in enumerate(xrow):
            d = below[cxy]
            if d not in bad:
                bad[d] = sum([1 << p for p, c in enumerate(table) if c & ~d])
            if b := bad[d]:
                for z, at in enumerate(map(mul, map(spread.__getitem__, xrow), rows[y])):
                    if at & b:
                        rowstar = rowstar or [ors(row) for row in rows]
                        lhs = 0
                        for t in iter_bits(xrow[z]):
                            lhs |= rowstar[t][rows[y][z]]
                        yield "HK1", (x, y, z), lhs, cxy

    for x, xrow in enumerate(rows):
        stray = reduce(or_, xrow) & ~dn[x]
        if stray:
            yield "HK3", (x,), stray & -stray, 1 << x

    if strict:
        for x in range(n):
            for y in range(x + 1, n):
                if dn[y] >> x & 1 and dn[x] >> y & 1:
                    yield "HK4", (x, y), 1 << x, 1 << y


# The report sorts by group, then indices, then HK2 before HK1 at a shared triple.
_REPORT_GROUP = {"HK2": 0, "HK1": 0, "HK3": 1, "HK4": 2}


def validate_hyper_bck(alg: HyperBCK, strict_antisymmetry: bool = False) -> ValidationReport:
    """Check the hyper BCK axioms on every element triple, collecting all witnesses.

    HK1: (x*z)*(y*z) < (x*y)   (hyperorder on subsets)
    HK2: (x*y)*z = (x*z)*y     (exact set equality)
    HK3: x*H < {x}

    ``strict_antisymmetry`` additionally checks HK4: x<y and y<x imply x=y,
    which some formulations include and this one omits by default.
    Violations come per triple (x, y, z), HK2 before HK1; then HK3 per x;
    then HK4 per pair.
    """
    c = alg.carrier
    failures = sorted(
        _hk_failures(len(c), alg.zero, alg.table, strict_antisymmetry),
        key=lambda item: (_REPORT_GROUP[item[0]], item[1], item[0] == "HK1"),
    )
    shown: dict[int, str] = {}

    def show(mask: int) -> str:
        text = shown.get(mask)
        if text is None:
            text = shown[mask] = str(sorted(c.labels_of(mask)))
        return text

    violations = []
    for axiom, indices, lhs, rhs in failures:
        if axiom == "HK1":
            detail = f"(x*z)*(y*z) = {show(lhs)} is not below x*y = {show(rhs)}"
        elif axiom == "HK2":
            detail = f"(x*y)*z = {show(lhs)} but (x*z)*y = {show(rhs)}"
        elif axiom == "HK3":
            detail = f"{c.labels[lhs.bit_length() - 1]} in x*H but not below x"
        else:
            detail = "x<y and y<x with x != y"
        violations.append(Violation(axiom, tuple(map(c.labels.__getitem__, indices)), detail))
    return ValidationReport(not violations, tuple(violations))


def _down_masks(n: int, zero: int, table: Sequence[int]) -> list[int]:
    """``dn[v]`` is the mask of u with u < v, that is with the zero in u*v."""
    dn = [0] * n
    for u in range(n):
        row = u * n
        for v in range(n):
            if table[row + v] >> zero & 1:
                dn[v] |= 1 << u
    return dn


def hk_axioms_hold_raw(
    n: int, zero: int, table: tuple[int, ...], strict_antisymmetry: bool = False
) -> bool:
    """Fail-fast axiom check on a raw cell-mask table: true iff ``_hk_failures`` yields nothing."""
    if _hk2_mismatch(table, _hk2_plan(n, zero)) is not None:
        return False
    return next(_past_hk2_failures(n, zero, table, strict_antisymmetry), None) is None


def hk_axioms_hold(alg: HyperBCK, strict_antisymmetry: bool = False) -> bool:
    """Fail-fast boolean form of the validator."""
    return hk_axioms_hold_raw(len(alg.carrier), alg.zero, alg.table, strict_antisymmetry)


def trivial_algebra(label: str = "O") -> HyperBCK:
    """The one-element algebra: O*O = {O}."""
    return HyperBCK(Carrier((label,), 0), (1,))

