"""Finite hyper BCK-algebras: carriers, hyperoperation tables, axiom checking.

A hyperoperation sends each ordered pair of elements to a *non-empty subset*
of the carrier.  Subsets are stored as bitmasks over carrier indices, so
HK1 ORs a triple's cells through each row's table of t*B per mask B and
tests the union with one AND; the public API speaks labels.

The axioms are tested in one place: ``_hk2_mismatch`` scans the HK2 plan and
``_past_hk2_failures`` yields the HK1, HK3 and HK4 failures of a table past it.
The reporting validator lists every failure both find; the fail-fast check runs
the same two and stops at the first, trying first the HK2 instance that last rejected a
table with its sides ORed inline, the one copy of the scan's body, held to it by a test.
Up to six elements the past-HK2 pass takes its masks, HK3's one-AND mask among them, from
a bounded cache keyed on the table's zero pattern, read through ``_ZERO_BITS``.  The
hyperorder has one scan, ``_down_masks``, and the image of a mask under a map one table,
``_image_masks``, which restrictions read too.  Results whose size varies with their
key are weighed and kept by one class of store, ``_Kept``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from operator import add, itemgetter, or_
from typing import Callable, Iterable, Iterator, Sequence

PRODUCT_BOUND = 256  # the largest carrier built: 65,536 cells, the square of the carrier
PRODUCT_CELLS_KEPT = 4 * PRODUCT_BOUND**2  # cells kept of per-table results: four at the bound
AXIOM_CHECK_BOUND = 64  # its HK2 plan holds n*n*(n-1)/2 = 129,024 instances, 17.6 MiB
HK2_PLAN_BOUND = 1 << 17  # instances the cached HK2 plans hold at once: one plan at 64 and more
RESTRICTIONS_KEPT = 16  # restrictions one algebra keeps; n elements have up to 2**(n-1) subalgebras
FINDINGS_KEPT = 1 << 12  # violations the reports share, over all label sets together
BITS_KEPT = 1 << 16  # bit positions iter_bits keeps: 256 full masks at PRODUCT_BOUND


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


class _Kept(dict):
    """A bounded store, ``@partial(_Kept, ...)`` on ``make``: a missing key's value is built as
    ``make(key)`` and kept, charged ``weigh(key, value)`` but at least ``limit // maxsize``.  A
    charge that would take ``held`` past ``limit`` empties the store first; a value charged past
    ``limit`` alone is returned unkept, and a ``make`` that raises keeps nothing."""

    __slots__ = ("make", "limit", "least", "weigh", "held")

    def __init__(self, make: Callable, limit: int, maxsize: int, weigh: Callable | None = None):
        self.make, self.limit, self.least, self.weigh = make, limit, limit // maxsize, weigh
        self.held = 0

    def clear(self) -> None:
        super().clear()
        self.held = 0

    def charge(self, weight: int) -> bool:
        """Hold ``weight`` more, emptying the store first (and then true) if it would pass."""
        if emptied := self.held + weight > self.limit:
            self.clear()
        self.held += weight
        return emptied

    def __missing__(self, key: object) -> object:
        value = self.make(key)
        weight = max(self.least, self.weigh(key, value) if self.weigh else 0)
        if weight <= self.limit:
            self.charge(weight)
            self[key] = value
        return value


def _bits(mask: int) -> tuple[int, ...]:
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


# The set bit positions of a mask in increasing order, kept because the checks ask for the bits
# of the same few cell masks millions of times; each is charged its bits, at least 16.
iter_bits = _Kept(_bits, BITS_KEPT, 1 << 12, lambda mask, bits: len(bits)).__getitem__


def _walk(domains: Sequence[Iterable], ok: Callable[[int, list], bool]) -> Iterator[tuple]:
    """The assignments of ``domains`` (at least one) that ``ok`` passes, in lexicographic order.

    The one backtracking loop of the searches: position k takes each value of
    ``domains[k]`` in turn, and the walk descends only when ``ok(k, values)``
    holds, ``values`` being the list assigned so far (read past k, it is stale).
    """
    n, values = len(domains), [None] * len(domains)
    stack = [iter(domains[0])]
    while stack:
        k = len(stack) - 1
        for values[k] in stack[k]:
            if ok(k, values):
                if k + 1 == n:
                    yield tuple(values)
                else:
                    stack.append(iter(domains[k + 1]))
                    break
        else:
            stack.pop()


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
    The restrictions built from it, in a store of ``RESTRICTIONS_KEPT``, and its hash, taken
    once from the zero and the table (so no label enters it), are kept out of equality and repr.
    """

    carrier: Carrier
    table: tuple[int, ...]
    _restrictions: _Kept | None = field(default=None, init=False, repr=False, compare=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.carrier.zero_index, self.table)))
        return self._hash

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        n = len(self.carrier.labels)
        if len(self.table) != n * n:
            message = f"table has {len(self.table)} of {n * n} required cells"
            raise InputError(message, "table-incomplete", "table")
        outside = -1 << n  # the bits past the carrier's, ~full_mask
        for pos, cell in enumerate(self.table):
            if cell == 0 or cell & outside:
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
        a, b = map(self.carrier.mask_of, (a, b))
        if a == 0 or b == 0:
            raise InputError("set arguments of the hyperoperation must be non-empty")
        cells = (self.cell(x, y) for x in iter_bits(a) for y in iter_bits(b))
        return self.carrier.labels_of(reduce(or_, cells))

    def hyper_order(self, x: str, y: str) -> bool:
        """``x < y`` in the hyperorder: the zero element belongs to ``x * y``."""
        c = self.carrier
        return bool(self.cell(c.index(x), c.index(y)) >> self.zero & 1)

    def set_order(self, a: Iterable[str], b: Iterable[str]) -> bool:
        """``A < B``: every element of A is below some element of B."""
        a, b = map(self.carrier.mask_of, (a, b))
        if a == 0 or b == 0:
            raise InputError("set arguments of the hyperorder must be non-empty")
        dn = _down_masks(len(self.carrier), self.zero, self.table)
        return not a & ~reduce(or_, [dn[v] for v in iter_bits(b)])

    def is_subalgebra(self, subset: Iterable[str]) -> bool:
        """True iff the subset contains zero and is closed under the operation."""
        mask = self.carrier.mask_of(subset)
        return self.is_subalgebra_mask(mask)

    def restrict(self, subset: Iterable[str]) -> HyperBCK:
        """The subalgebra on ``subset`` with the inherited table and label order."""
        return self.restrict_mask(self.carrier.mask_of(subset))

    # -- index/mask-level operations (used by the validators and oracles) --

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

    def restrict_mask(self, mask: int) -> HyperBCK:
        """The subalgebra on ``mask`` (``self`` if whole); refused without zero or if not closed.

        A restriction built is kept on the algebra, in a store of ``RESTRICTIONS_KEPT``, and
        returned again for the same mask; a refusal is raised afresh on every call.
        """
        if mask == self.carrier.full_mask:
            return self
        if self._restrictions is None:
            make = partial(_restriction, self.carrier, self.table)  # no cycle through the algebra
            kept = _Kept(make, RESTRICTIONS_KEPT, RESTRICTIONS_KEPT)
            object.__setattr__(self, "_restrictions", kept)
        if mask not in self._restrictions and not self.is_subalgebra_mask(mask):
            raise InputError(f"{sorted(self.carrier.labels_of(mask))!r} is not a subalgebra")
        return self._restrictions[mask]

    def encode(self) -> tuple[int, int, tuple[int, ...]]:
        """A hashable exact encoding (size, zero index, cell masks)."""
        return (len(self.carrier), self.zero, self.table)


def _restriction(carrier: Carrier, table: tuple[int, ...], mask: int) -> HyperBCK:
    """The subalgebra on the closed ``mask`` of the algebra with ``carrier`` and ``table``."""
    old, n = iter_bits(mask), len(carrier)
    image = _image_masks([(mask & (1 << o) - 1).bit_count() for o in range(n)])  # old[i] becomes i
    labels = tuple(carrier.labels[o] for o in old)
    cells = [image[table[x * n + y]] for x in old for y in old]
    return HyperBCK(Carrier(labels, old.index(carrier.zero_index)), cells)


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


def _mask_ors(
    parts: Sequence, join: Callable = or_, empty: object = 0, listed: bool = False
) -> list | _Kept:
    """Entry B joins ``parts[i]`` over the bits i of mask B in order (OR by default); past
    ``_TABLED_SIZE`` parts entries fill on lookup, 256 kept, unless all 2**n are ``listed``."""
    if len(parts) > _TABLED_SIZE and not listed:
        return _Kept(lambda b: reduce(join, [parts[i] for i in iter_bits(b)], empty), 256, 256)
    ors = [empty] * (1 << len(parts))
    for b in range(1, len(ors)):
        low = b & -b
        ors[b] = join(parts[low.bit_length() - 1], ors[b ^ low])
    return ors


def _image_masks(mapping: Sequence[int], listed: bool = False) -> list | _Kept:
    """Entry B is the image ``{mapping[t] : t in B}`` of mask B, for reading many masks."""
    return _mask_ors([1 << v for v in mapping], listed=listed)


_hk2_hint = [0, 0, 0, (), ()]  # n, xy, xz, gz, gy: the HK2 instance that last rejected a table


@partial(_Kept, limit=HK2_PLAN_BOUND, maxsize=64, weigh=lambda key, plan: len(plan))
def _hk2_plan(key: tuple[int, int]) -> tuple[tuple, ...]:
    """The HK2 instances ``(x*n + y, x*n + z, gz, gy)`` of size and zero ``key``, y < z.

    ``gz[m]`` lists the positions ``t*n + z`` for t in mask m (``gy`` those of y), so
    (x*y)*z ORs the cells at ``gz[table[x*n + y]]``.  The zero's row comes last: by
    HK3 it holds only elements below zero, so it fails least often."""
    n, zero = key
    if n > AXIOM_CHECK_BOUND:
        message = f"axiom checks are limited to carriers of at most {AXIOM_CHECK_BOUND} elements"
        raise InputError(f"{message}, not {n}", "too-large", "carrier")
    gather = [_mask_ors([(t * n + z,) for t in range(n)], add, ()) for z in range(n)]
    return tuple(
        (x * n + y, x * n + z, gather[z], gather[y])
        for x in [*range(zero), *range(zero + 1, n), zero]
        for y in range(n) for z in range(y + 1, n)
    )


def _hk2_mismatch(table: Sequence[int], instances: Iterable[tuple]) -> tuple | None:
    """The next HK2 plan instance with unequal sides, as ``(instance, (x*y)*z, (x*z)*y)``;
    each side ORs a gather list's cells.  On a shared plan iterator a scan resumes past its hit."""
    for xy, xz, gz, gy in instances:
        lhs = rhs = 0
        for p in gz[table[xy]]:
            lhs |= table[p]
        for p in gy[table[xz]]:
            rhs |= table[p]
        if lhs != rhs:
            return (xy, xz, gz, gy), lhs, rhs


@lru_cache(maxsize=1 << 10)  # up to _TABLED_SIZE, tables share their rows and down masks
def _tabled_ors(parts: tuple[int, ...]) -> tuple:
    return tuple(_mask_ors(parts))


# per zero below _TABLED_SIZE, the bytes.translate table of a mask below 256 to its zero bit
_ZERO_BITS = tuple(bytes(m >> zero & 1 for m in range(256)) for zero in range(_TABLED_SIZE))


@lru_cache(maxsize=1 << 9)
def _zero_pattern(n: int, pattern: bytes) -> tuple[tuple[int, ...], tuple, bytes, int]:
    """``dn``, ``below``, the ``easy`` masks (D the whole carrier) and ``outside`` of a zero
    pattern: byte p of ``outside``, big-endian as the table's bytes, masks what cell p may not
    hold by HK3, the elements not below its row's x."""
    dn = tuple(_down_masks(n, 0, pattern))
    below, full = _tabled_ors(dn), (1 << n) - 1
    outside = int.from_bytes(bytes([full & ~dn[p // n] for p in range(n * n)]), "big")
    return dn, below, bytes([m for m, d in enumerate(below) if d == full]), outside


def _hk_failures(n: int, zero: int, table: tuple[int, ...], strict: bool = False) -> Iterator:
    """Yield every falsified axiom instance of a raw cell-mask table, cheapest first.

    Each item is ``(axiom, indices, lhs_mask, rhs_mask)``: for HK1 and HK2 the two sides at
    the triple; for HK3 ``{t}`` escaping x*H and ``{x}``; for HK4 ``{x}`` and ``{y}``.  HK2
    comes first, as (x, y, z) and then (x, z, y) with the sides swapped, from ``_hk2_mismatch``
    scans of one plan iterator; then ``_past_hk2_failures`` yields the rest."""
    instances = iter(_hk2_plan[n, zero])
    while hit := _hk2_mismatch(table, instances):
        (xy, xz, _, _), lhs, rhs = hit
        (x, y), z = divmod(xy, n), xz % n
        yield "HK2", (x, y, z), lhs, rhs
        yield "HK2", (x, z, y), rhs, lhs
    yield from _past_hk2_failures(n, zero, table, strict)


def _past_hk2_failures(n: int, zero: int, table: tuple[int, ...], strict: bool) -> Iterator:
    """HK1 per (x, y, z), HK3 per x and HK4 per pair if ``strict``, as the axioms state them.

    HK1 at (x, y, z) asks that (x*z)*(y*z), the OR of t*(y*z) over t in x*z read from the
    rows' OR tables (t*B per mask B), lies in D = below[x*y], the elements below a member
    of x*y.  Most pairs have D the whole carrier, which no union leaves: they are skipped
    first, and a table all of whose cells are ``easy`` skips HK1.  Up to six elements HK3
    is one AND of the table's bytes with the pattern's ``outside``, and only a stray runs
    its row loop."""
    ors, full, raw = _tabled_ors, (1 << n) - 1, n <= _TABLED_SIZE and bytes(table)
    if raw:  # the zero bits, read in C, pick the masks kept per zero pattern
        dn, below, easy, outside = _zero_pattern(n, raw.translate(_ZERO_BITS[zero]))
    else:
        ors, dn = _mask_ors, _down_masks(n, zero, table)
        below = ors(tuple(dn))
    hard = not raw or raw.strip(easy)  # a byte is left exactly when some cell is not easy
    strays = not raw or int.from_bytes(raw, "big") & outside  # some cell holds more than HK3 lets
    rows = (hard or strays) and [table[r : r + n] for r in range(0, n * n, n)]
    if hard:
        rowstar = [ors(row) for row in rows]
        for x, xrow in enumerate(rows):
            for y, cxy in enumerate(xrow):
                d = below[cxy]
                if d == full:
                    continue
                for z, yz in enumerate(rows[y]):
                    lhs = 0
                    for t in iter_bits(xrow[z]):
                        lhs |= rowstar[t][yz]
                    if lhs & ~d:
                        yield "HK1", (x, y, z), lhs, cxy

    for x, xrow in enumerate(rows if strays else ()):
        stray = reduce(or_, xrow) & ~dn[x]
        if stray:
            yield "HK3", (x,), stray & -stray, 1 << x

    if strict:
        for x in range(n):
            for y in range(x + 1, n):
                if dn[y] >> x & 1 and dn[x] >> y & 1:
                    yield "HK4", (x, y), 1 << x, 1 << y


# label tuple -> failure item -> its Violation, shared by reports; each is charged one
_findings = _Kept(lambda labels: {}, FINDINGS_KEPT, FINDINGS_KEPT)


def validate_hyper_bck(alg: HyperBCK, strict_antisymmetry: bool = False) -> ValidationReport:
    """Check the hyper BCK axioms on every element triple, collecting all witnesses.

    HK1: (x*z)*(y*z) < (x*y)   (hyperorder on subsets)
    HK2: (x*y)*z = (x*z)*y     (exact set equality)
    HK3: x*H < {x}

    ``strict_antisymmetry`` additionally checks HK4: x<y and y<x imply x=y,
    which some formulations include and this one omits by default.
    Violations come per triple (x, y, z), HK2 before HK1; then HK3 per x;
    then HK4 per pair.  A violation's witness and text depend only on the
    labels and the failure item, so each distinct one is built once and
    shared by later reports.  The store holds ``FINDINGS_KEPT`` label sets
    and findings at most: a finding that would pass it empties it first.
    """
    c = alg.carrier
    failures = list(_hk_failures(len(c), alg.zero, alg.table, strict_antisymmetry))
    # The triples lead, all HK2 before any HK1, and HK3 and HK4 follow in report order:
    # a stable sort of the triples by indices puts HK2 before HK1 at a shared triple.
    k = len(failures)
    while k and len(failures[k - 1][1]) < 3:
        k -= 1
    failures[:k] = sorted(failures[:k], key=itemgetter(1))
    labels = c.labels
    store = _findings[labels] if failures else {}
    shown: dict[int, str] = {}

    def show(mask: int) -> str:
        text = shown.get(mask)
        if text is None:
            text = shown[mask] = str(sorted(c.labels_of(mask)))
        return text

    violations = []
    for item in failures:
        v = store.get(item)
        if v is None:
            axiom, indices, lhs, rhs = item
            if axiom == "HK1":
                detail = f"(x*z)*(y*z) = {show(lhs)} is not below x*y = {show(rhs)}"
            elif axiom == "HK2":
                detail = f"(x*y)*z = {show(lhs)} but (x*z)*y = {show(rhs)}"
            elif axiom == "HK3":
                detail = f"{labels[lhs.bit_length() - 1]} in x*H but not below x"
            else:
                detail = "x<y and y<x with x != y"
            v = Violation(axiom, tuple(map(labels.__getitem__, indices)), detail)
            if _findings.charge(1):  # emptied, these labels' findings too: keep them anew
                store = _findings[labels]
            store[item] = v
        violations.append(v)
    return ValidationReport(not violations, tuple(violations))


def _down_masks(n: int, zero: int, table: Sequence[int]) -> list[int]:
    """``dn[v]`` is the mask of u with u < v, that is with the zero in u*v, in one pass."""
    dn = [0] * n
    for p, cell in enumerate(table):
        if cell >> zero & 1:
            dn[p % n] |= 1 << p // n
    return dn


def hk_axioms_hold_raw(
    n: int, zero: int, table: tuple[int, ...], strict_antisymmetry: bool = False
) -> bool:
    """Fail-fast axiom check on a raw cell-mask table: true iff ``_hk_failures`` yields nothing.
    The HK2 instance that last rejected a table goes first, as the next search leaf mostly fails
    there too; it depends on ``n`` alone, read with it in one step, and a miss scans the plan.
    Its sides are ORed here, saving a call and a tuple on nine leaves in ten (see the module)."""
    hint_n, xy, xz, gz, gy = _hk2_hint
    if hint_n == n:
        lhs = rhs = 0
        for p in gz[table[xy]]:
            lhs |= table[p]
        for p in gy[table[xz]]:
            rhs |= table[p]
        if lhs != rhs:
            return False
    if hit := _hk2_mismatch(table, _hk2_plan[n, zero]):
        _hk2_hint[:] = n, *hit[0]
        return False
    return next(_past_hk2_failures(n, zero, table, strict_antisymmetry), None) is None


def hk_axioms_hold(alg: HyperBCK, strict_antisymmetry: bool = False) -> bool:
    """Fail-fast boolean form of the validator."""
    return hk_axioms_hold_raw(len(alg.carrier), alg.zero, alg.table, strict_antisymmetry)


def trivial_algebra(label: str = "O") -> HyperBCK:
    """The one-element algebra: O*O = {O}."""
    return HyperBCK(Carrier((label,), 0), (1,))

