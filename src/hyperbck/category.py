"""Concrete categorical constructions: terminal object, products, equalizers,
coequalizers via regular congruences, and pullbacks.

Every construction returns the built object together with its legs.  The
legs and mediators are fuzzy homomorphisms that satisfy their equations by
construction, whatever the inputs, and are born proved: a closed subset's
inclusion, the projections of full componentwise cells, the projection of a
representative-independent congruence and the map it induces, and their
composites are homs; a min of degrees is at most each of them and a max at
least each.  The tests check these against literal oracles.

What can fail on a concrete input raises :class:`ClaimViolation` with a
witness instead of returning a silently wrong object, and at desk scale
doubles as an instrument for finding counterexamples.  Four claims can:

- ``equalizer-closed``: the agreement set of a parallel pair need not be
  closed under the operation (a pullback inherits it);
- ``product-mediator-hom``: the tupling of a cone, the only map the
  projection equations allow, need not be a homomorphism;
- ``congruence-meet-regular``: the meet of the regular congruences that
  coequalize a pair need not be regular;
- ``coequalizer-factors``: a coequalizing map can separate a block of the
  quotient when its target fails the axioms, which no construction checks.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import product as iter_product
from math import prod
from typing import Iterable, Sequence

from .core import (
    PRODUCT_BOUND,
    PRODUCT_CELLS_KEPT,
    Carrier,
    ClaimViolation,
    HyperBCK,
    InputError,
    _image_masks,
    _Kept,
    _mask_ors,
    _walk,
    hk_axioms_hold_raw,
    iter_bits,
    trivial_algebra,
)
from .fuzzy import FuzzyHyperBCK
from .morphisms import Hom, _at_least, _compose, is_fuzzy_hom, is_hom

CONGRUENCE_BOUND = 5  # classes a coarsening walk takes: Bell(5) = 52 strings, Bell(k) grows fast


@dataclass(frozen=True, slots=True)
class Congruence:
    """The equivalence of a carrier relating i and j exactly when ``keys[i] == keys[j]``.

    Blocks are listed in order of first appearance, so each is sorted and
    they come by least element: a congruence is canonical as built.
    Regularity (the quotient hyperoperation is representative-independent
    and the quotient satisfies the axioms) is checked, never assumed.
    """

    base: HyperBCK
    keys: InitVar[Iterable]
    blocks: tuple[tuple[int, ...], ...] = field(init=False)
    _to_block: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _cells: tuple[int, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self, keys: Iterable) -> None:
        first: dict = {}
        to_block = tuple(first.setdefault(key, len(first)) for key in keys)
        if len(to_block) != len(self.base.carrier):
            raise InputError("a congruence needs one key per element to partition the carrier")
        blocks = (tuple(i for i, c in enumerate(to_block) if c == b) for b in range(len(first)))
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "_to_block", to_block)
        object.__setattr__(self, "_cells", _quotient_cells(self))

    @classmethod
    def from_blocks(cls, base: HyperBCK, blocks: Sequence[Sequence[int]]) -> Congruence:
        n = len(base.carrier)
        keys = {i: b for b, block in enumerate(blocks) for i in block if type(i) is int}
        if not all(blocks) or sum(map(len, blocks)) != len(keys) or keys.keys() != set(range(n)):
            raise InputError("blocks must partition the carrier")
        return cls(base, map(keys.get, range(n)))

    def block_of(self, i: int) -> int:
        if not 0 <= i < len(self._to_block):
            raise InputError(f"element index {i} out of range")
        return self._to_block[i]

    def relates(self, i: int, j: int) -> bool:
        return self.block_of(i) == self.block_of(j)

    def label_blocks(self) -> tuple[frozenset[str], ...]:
        labels = self.base.carrier.labels
        return tuple(frozenset(labels[i] for i in block) for block in self.blocks)


def _quotient_cells(cong: Congruence) -> tuple[int, ...] | None:
    """Block-level table, or None if it depends on representatives; built once per congruence."""
    image = _image_masks(cong._to_block)
    cell = cong.base.cell
    cells = []
    for bx in cong.blocks:
        for by in cong.blocks:
            values = {image[cell(x, y)] for x in bx for y in by}
            if len(values) > 1:
                return None
            cells.append(values.pop())
    return tuple(cells)


def is_regular_congruence(cong: Congruence) -> bool:
    """Representative-independent quotient that again satisfies the axioms."""
    cells = cong._cells
    zero = cong.block_of(cong.base.zero)
    return cells is not None and hk_axioms_hold_raw(len(cong.blocks), zero, cells)


def quotient(cong: Congruence) -> tuple[HyperBCK, Hom]:
    """The quotient algebra and its canonical surjection.

    Block labels are the bracketed label of the least member, e.g. ``[O]``.
    """
    cells = cong._cells
    if cells is None:
        raise InputError("congruence is not regular: quotient cells are ambiguous")
    base_labels = cong.base.carrier.labels
    labels = tuple(f"[{base_labels[block[0]]}]" for block in cong.blocks)
    alg = HyperBCK(Carrier(labels, cong.block_of(cong.base.zero)), cells)
    return alg, Hom._trusted(cong.base, alg, cong._to_block, True)


def _grows_by_one(k: int, rgs: list) -> bool:
    """A restricted growth string opens at most one block past those before position k."""
    return rgs[k] <= max(rgs[:k], default=-1) + 1


def _regular_coarsenings(base: HyperBCK, classes: Sequence[int]) -> tuple[Congruence, ...]:
    """Regular congruences of ``base`` merging whole classes, i in class ``classes[i]``: the
    restricted growth strings r over the k classes on ``core._walk``, in lexicographic order
    (TAOCP 4A §7.2.1.5), keying i by r[classes[i]].  Refused past ``CONGRUENCE_BOUND`` classes."""
    k = max(classes) + 1
    if k > CONGRUENCE_BOUND:
        raise InputError(
            f"{k} classes exceed the congruence enumeration bound {CONGRUENCE_BOUND}; "
            "partition counts grow too fast beyond it", code="too-large", location="carrier"
        )
    walk = _walk([range(b + 1) for b in range(k)], _grows_by_one)
    coarsenings = (Congruence(base, map(r.__getitem__, classes)) for r in walk)
    return tuple(filter(is_regular_congruence, coarsenings))


@lru_cache(maxsize=1 << 12)
def enumerate_regular_congruences(alg: HyperBCK) -> tuple[Congruence, ...]:
    """All regular congruences of an algebra of at most ``CONGRUENCE_BOUND`` elements: the
    regular coarsenings of the discrete one, in lexicographic order of their block numbers."""
    return _regular_coarsenings(alg, range(len(alg.carrier)))


@dataclass(frozen=True, slots=True)
class ConstructionResult:
    """A constructed object with named legs and provenance.

    For coequalizers the congruence that was quotiented by is attached.
    """

    object: FuzzyHyperBCK
    legs: dict[str, Hom]
    kind: str
    inputs: tuple
    congruence: Congruence | None = None


def terminal() -> FuzzyHyperBCK:
    """The one-element structure with membership zero, terminal in the crisp category only:
    a fuzzy hom into it needs mu identically 0 on its source (see ROADMAP item 11)."""
    return FuzzyHyperBCK(trivial_algebra("O"), (Fraction(0),))


def terminal_map(src: HyperBCK) -> Hom:
    """The unique map into the one-element algebra (always a homomorphism)."""
    return Hom(src, terminal().alg, (0,) * len(src.carrier))


def _require_fuzzy_homs(message: str, **maps: tuple[Hom, FuzzyHyperBCK, FuzzyHyperBCK]) -> None:
    """Refuse the input unless every ``(h, src, dst)`` is a fuzzy hom, located at the first
    failing map's name: :func:`is_fuzzy_hom` refuses mismatched endpoints (``endpoint-mismatch``)
    and non-homs (``not-hom``), and a hom that lowers membership gets ``message`` and
    ``not-fuzzy-hom``.
    """
    for name, (h, src, dst) in maps.items():
        try:
            fuzzy = is_fuzzy_hom(h, src, dst)
        except InputError as exc:
            raise InputError(str(exc), exc.code, name) from None
        if not fuzzy:
            raise InputError(message, "not-fuzzy-hom", name)


def product(factors: Sequence[FuzzyHyperBCK]) -> ConstructionResult:
    """Finite product: tuple carrier, componentwise cells, min membership.

    The cell of two tuples is the full componentwise set
    ``{t : t_i in x_i * y_i}``, the choice under which every projection is
    a homomorphism: the AND over i of the preimage of ``x_i * y_i`` under
    projection i.  Membership of a tuple is the minimum over components.
    Products of more than ``PRODUCT_BOUND`` elements are refused unbuilt.
    The crisp part depends on the algebras only and is built once per factor
    tuple; the degrees are taken on every call.
    """
    if not factors:
        raise InputError("product needs at least one factor; see terminal()")
    algs = tuple(f.alg for f in factors)
    size = prod(len(a.carrier) for a in algs)
    if size > PRODUCT_BOUND:
        why = "the table grows with the square of the carrier"
        message = f"carrier size {size} exceeds the product bound {PRODUCT_BOUND}; {why}"
        raise InputError(message, "too-large", "carrier")
    alg, legs = _crisp_product[algs]
    columns = zip(*(map(f.mu.__getitem__, leg.mapping) for f, leg in zip(factors, legs)))
    obj = FuzzyHyperBCK._trusted(alg, tuple(map(_least, columns)))
    named = {f"p{i}": leg for i, leg in enumerate(legs)}
    return ConstructionResult(obj, named, "product", tuple(factors))


def _least(degrees: Sequence[Fraction]) -> Fraction:
    """``min(degrees)``, the first least degree, each comparison by :func:`_at_least`."""
    return reduce(lambda low, v: low if _at_least(v, low) else v, degrees)


@partial(_Kept, limit=PRODUCT_CELLS_KEPT, maxsize=256, weigh=lambda _, p: len(p[0].table))
def _crisp_product(algs: tuple[HyperBCK, ...]) -> tuple[HyperBCK, tuple[Hom, ...]]:
    """The product algebra of ``algs`` and its projections, homs since every cell is non-empty."""
    tuples = list(iter_product(*(range(len(a.carrier)) for a in algs)))
    labels = tuple("|".join(a.carrier.labels[c] for a, c in zip(algs, t)) for t in tuples)
    projections = [tuple(t[i] for t in tuples) for i in range(len(algs))]
    preimages = [
        _mask_ors([sum(1 << j for j, v in enumerate(p) if v == c) for c in range(len(a.carrier))])
        for a, p in zip(algs, projections)
    ]
    table = []
    for xt in tuples:
        for yt in tuples:
            mask = -1
            for a, pre, xc, yc in zip(algs, preimages, xt, yt):
                mask &= pre[a.cell(xc, yc)]
            table.append(mask)
    zero = tuples.index(tuple(a.zero for a in algs))
    alg = HyperBCK(Carrier(labels, zero), table)
    return alg, tuple(Hom._trusted(alg, a, p, True) for a, p in zip(algs, projections))


def mediate_product(
    result: ConstructionResult, source: FuzzyHyperBCK, cone: Sequence[Hom]
) -> Hom:
    """The tupling map induced by a cone, the mediating hom when it is one.

    The tupling is the only map satisfying the projection equations, and it
    lowers no membership, so uniqueness is structural; what can fail is the
    map being a homomorphism at all, which is surfaced as a claim violation.
    """
    if result.kind != "product":
        raise InputError("mediate_product needs a product construction result")
    factors: tuple[FuzzyHyperBCK, ...] = result.inputs
    if len(cone) != len(factors):
        raise InputError("cone must have one leg per factor")
    legs = {f"cone[{i}]": (q, source, f) for i, (q, f) in enumerate(zip(cone, factors))}
    _require_fuzzy_homs("cone legs must be fuzzy homomorphisms", **legs)
    projections = [leg.mapping for leg in result.legs.values()]
    position = {t: j for j, t in enumerate(zip(*projections))}
    mapping = tuple(position[t] for t in zip(*(q.mapping for q in cone)))
    phi = Hom._trusted(source.alg, result.object.alg, mapping)
    if not is_hom(phi):
        raise ClaimViolation(
            "product-mediator-hom", phi.as_label_map(),
            "the tupling map of the cone is not a homomorphism, "
            "so no mediating morphism exists for this cone",
        )
    return phi


def equalizer(f: Hom, g: Hom, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> ConstructionResult:
    """The agreement subalgebra with its inclusion leg.

    Raises a claim violation when the agreement set is not closed under
    the operation; such instances exist and refute the construction.
    """
    _require_fuzzy_homs("both maps must be fuzzy homomorphisms", f=(f, src, dst), g=(g, src, dst))
    k_mask = sum(1 << i for i, (u, v) in enumerate(zip(f.mapping, g.mapping)) if u == v)
    try:
        obj = src.restrict_mask(k_mask)
    except InputError:  # both maps fix zero, so the agreement set is not closed
        x, y, t = (src.alg.carrier.labels[i] for i in src.alg._first_escape(k_mask))
        raise ClaimViolation(
            "equalizer-closed",
            (x, y, t),
            f"agreement set of the parallel pair is not closed: {t} in {x}*{y} escapes it",
        ) from None
    include = Hom._trusted(obj.alg, src.alg, iter_bits(k_mask), True)
    return ConstructionResult(obj, {"include": include}, "equalizer", (f, g, src, dst))


def partition_meet(congs: Sequence[Congruence]) -> Congruence:
    """Blockwise intersection: relates x,y iff every congruence does."""
    if not congs:
        raise InputError("meet of an empty family is undefined")
    base = congs[0].base
    if any(c.base is not base and c.base != base for c in congs):
        raise InputError("a meet needs congruences on one algebra")
    return Congruence(base, zip(*(c._to_block for c in congs)))


def _generated_congruence(alg: HyperBCK, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """The least equivalence of ``alg`` relating each ``(a, b)`` of ``pairs``: one key per
    class, a pair across two classes giving b's class the key of a's."""
    keys = list(range(len(alg.carrier)))
    for a, b in pairs:
        if (old := keys[b]) != (new := keys[a]):
            keys = [new if k == old else k for k in keys]
    return Congruence(alg, keys)


def coequalizer(f: Hom, g: Hom, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> ConstructionResult:
    """Quotient of the target by the meet of all coequalizing regular congruences.

    Each member contains E, the equivalence the pairs ``(f(i), g(i))`` generate, so the family is
    the regular coarsenings of E and a regular E is the meet.  Otherwise the family is walked
    (refused past ``CONGRUENCE_BOUND`` classes of E; the total congruence is always in it) and
    its meet verified to be regular; a failure is a claim violation with the partition as
    witness.  Membership of a block is the maximum over its members.
    """
    _require_fuzzy_homs("both maps must be fuzzy homomorphisms", f=(f, src, dst), g=(g, src, dst))
    rho = _generated_congruence(dst.alg, zip(f.mapping, g.mapping))
    if not is_regular_congruence(rho):
        rho = partition_meet(_regular_coarsenings(dst.alg, rho._to_block))
        if not is_regular_congruence(rho):
            raise ClaimViolation(
                "congruence-meet-regular",
                rho.label_blocks(),
                "meet of the coequalizing regular congruences is not regular",
            )
    q_alg, project = quotient(rho)
    mu = tuple(max(dst.mu[i] for i in block) for block in rho.blocks)
    obj = FuzzyHyperBCK(q_alg, mu)
    return ConstructionResult(
        obj, {"project": project}, "coequalizer", (f, g, src, dst), congruence=rho
    )


def mediate_coequalizer(result: ConstructionResult, target: FuzzyHyperBCK, phi: Hom) -> Hom:
    """Factor a coequalizing map through the canonical surjection.

    Well-definedness on blocks is exactly the universal property; when it
    fails (the map separates elements the quotient merged, which needs a
    target that fails the axioms) the failure is surfaced as a claim
    violation with the offending block.
    """
    if result.kind != "coequalizer" or result.congruence is None:
        raise InputError("mediate_coequalizer needs a coequalizer construction result")
    f, g, _src, dst = result.inputs
    _require_fuzzy_homs("map must be a fuzzy homomorphism", phi=(phi, dst, target))
    if _compose(f.mapping, phi.mapping) != _compose(g.mapping, phi.mapping):
        raise InputError("map does not coequalize the parallel pair")

    rho = result.congruence
    mapping = []
    for block in rho.blocks:
        images = {phi.mapping[i] for i in block}
        if len(images) > 1:
            raise ClaimViolation(
                "coequalizer-factors",
                tuple(sorted(dst.alg.carrier.labels[i] for i in block)),
                "a coequalizing map separates a block of the quotient; "
                "it cannot factor through the canonical surjection",
            )
        mapping.append(images.pop())
    return Hom._trusted(result.object.alg, target.alg, tuple(mapping), True)


def pullback(
    f: Hom, g: Hom, a: FuzzyHyperBCK, b: FuzzyHyperBCK, c: FuzzyHyperBCK
) -> ConstructionResult:
    """Pullback of a cospan, built as an equalizer inside the product.

    Inherits the equalizer's failure mode: the agreement set of the two
    composites need not be closed, and then no subset-style pullback
    exists; the claim violation propagates.
    """
    _require_fuzzy_homs("cospan maps must be fuzzy homomorphisms", f=(f, a, c), g=(g, b, c))
    prod = product([a, b])
    eq = equalizer(prod.legs["p0"].then(f), prod.legs["p1"].then(g), prod.object, c)
    include = eq.legs["include"]
    legs = {"to_a": include.then(prod.legs["p0"]), "to_b": include.then(prod.legs["p1"])}
    return ConstructionResult(eq.object, legs, "pullback", (f, g, a, b, c))
