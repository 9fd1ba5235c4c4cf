"""Homomorphisms of hyper BCK-algebras and their fuzzy refinements.

A homomorphism here is the strong form: it fixes zero and the pointwise
image of every cell equals the cell of the images,

    {f(t) : t in x*y}  =  f(x) * f(y).

The fuzzy refinement additionally asks mu_target(f(x)) >= mu_source(x).
Checking, exhaustive enumeration, the level-set criterion, isomorphism and
bounded mono tests all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

from .core import HyperBCK, InputError, _image_masks, iter_bits
from .fuzzy import FuzzyHyperBCK, fuzzy_condition_holds


@dataclass(frozen=True, slots=True)
class Hom:
    """A total element map between two carriers, by source index.

    Only totality and range are enforced at construction; whether the map
    is a homomorphism is decided by :func:`is_hom`.
    """

    source: HyperBCK
    target: HyperBCK
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != len(self.source.carrier):
            raise InputError("map must be total on the source carrier")
        m = len(self.target.carrier)
        if any(not 0 <= v < m for v in self.mapping):
            raise InputError("map value out of target range")

    @classmethod
    def from_labels(cls, source: HyperBCK, target: HyperBCK, mapping: dict[str, str]) -> Hom:
        """The map a label dict names.

        Refused with code ``shape`` when a source label is missing, and with
        ``unknown-label`` when a key or a value names no element.
        """
        missing = set(source.carrier.labels) - set(mapping)
        if missing:
            raise InputError(f"map missing source elements {sorted(missing)}", "shape")
        extra = set(mapping) - set(source.carrier.labels)
        if extra:
            raise InputError(f"map names unknown source elements {sorted(extra)}", "unknown-label")
        unknown = set(mapping.values()) - set(target.carrier.labels)
        if unknown:
            raise InputError(f"map names unknown target elements {sorted(unknown)}", "unknown-label")
        return cls(
            source,
            target,
            tuple(target.carrier.index(mapping[lab]) for lab in source.carrier.labels),
        )

    @classmethod
    def identity(cls, alg: HyperBCK) -> Hom:
        return cls(alg, alg, tuple(range(len(alg.carrier))))

    def as_label_map(self) -> dict[str, str]:
        return {
            lab: self.target.carrier.labels[self.mapping[i]]
            for i, lab in enumerate(self.source.carrier.labels)
        }

    def image_mask(self, mask: int) -> int:
        out = 0
        for i in iter_bits(mask):
            out |= 1 << self.mapping[i]
        return out

    def then(self, other: Hom) -> Hom:
        """Composition ``other after self`` (source of other = target of self)."""
        if other.source != self.target:
            raise InputError("composition endpoints do not match")
        return Hom(self.source, other.target, tuple(other.mapping[v] for v in self.mapping))

    def is_bijective(self) -> bool:
        return len(self.source.carrier) == len(self.target.carrier) and len(
            set(self.mapping)
        ) == len(self.mapping)

    def inverse(self) -> Hom:
        if not self.is_bijective():
            raise InputError("only bijective maps can be inverted")
        inv = [0] * len(self.mapping)
        for i, v in enumerate(self.mapping):
            inv[v] = i
        return Hom(self.target, self.source, tuple(inv))


def is_hom(h: Hom) -> bool:
    """Strong homomorphism test: zero is fixed and images of cells match cells."""
    return _maps_cells(h.source, h.target, h.mapping)


def _maps_cells(src: HyperBCK, dst: HyperBCK, mapping: tuple[int, ...]) -> bool:
    """The strong hom equation over the raw tables, for a total in-range map."""
    if mapping[src.zero] != dst.zero:
        return False
    n = len(mapping)
    m = len(dst.carrier.labels)
    src_table = src.table
    dst_table = dst.table
    image = [1 << v for v in mapping]  # cell by cell, not _image_masks: most maps fail early
    for x, fx in enumerate(mapping):
        row = x * n
        dst_row = fx * m
        for y, fy in enumerate(mapping):
            out = 0
            for t in iter_bits(src_table[row + y]):
                out |= image[t]
            if out != dst_table[dst_row + fy]:
                return False
    return True


def _require_fuzzy_endpoints(h: Hom, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> None:
    if h.source != src.alg or h.target != dst.alg:
        raise InputError("map endpoints do not match the given fuzzy structures")
    if not is_hom(h):
        raise InputError("map is not a homomorphism")


def is_fuzzy_hom(h: Hom, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> bool:
    """True iff mu_target(f(x)) >= mu_source(x) for every x (f already a hom)."""
    _require_fuzzy_endpoints(h, src, dst)
    return _never_lowers_membership(h, src, dst)


def _never_lowers_membership(h: Hom, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> bool:
    """The membership inequality of a fuzzy hom, for a map already known to be a hom."""
    return all(dst.mu[h.mapping[i]] >= v for i, v in enumerate(src.mu))


def fuzzy_hom_via_cuts(h: Hom, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> bool:
    """Level-set criterion: each level set maps into the matching level set.

    Checking every level occurring in either structure suffices because
    cuts are piecewise-constant between levels; this must agree with
    :func:`is_fuzzy_hom` on every input.
    """
    _require_fuzzy_endpoints(h, src, dst)
    for alpha in sorted(set(src.cut_levels()) | set(dst.cut_levels())):
        image = h.image_mask(src.alpha_cut_mask(alpha))
        if image & ~dst.alpha_cut_mask(alpha):
            return False
    return True


def is_fuzzy_iso(h: Hom, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> bool:
    """Bijective hom with hom inverse and exactly matching membership."""
    _require_fuzzy_endpoints(h, src, dst)
    if not h.is_bijective() or not is_hom(h.inverse()):
        return False
    return all(dst.mu[h.mapping[i]] == v for i, v in enumerate(src.mu))


def _zero_fixing_maps(n: int, zero: int, m: int, dst_zero: int) -> Iterator[tuple[int, ...]]:
    """Maps of an n-set into range(m) with ``zero -> dst_zero``, in lexicographic order.

    The fixed value is inserted at the ``zero`` index into each tuple of the
    other values, which keeps the lexicographic order.
    """
    fixed = (dst_zero,)
    for rest in product(range(m), repeat=n - 1):
        yield rest[:zero] + fixed + rest[zero:]


@lru_cache(maxsize=1 << 12)
def enumerate_homs(src: HyperBCK, dst: HyperBCK) -> tuple[Hom, ...]:
    """All homomorphisms src -> dst, in lexicographic order of the value tuple.

    Only maps sending zero to zero are tried.
    """
    return tuple(
        Hom(src, dst, mapping)
        for mapping in _zero_fixing_maps(len(src.carrier), src.zero, len(dst.carrier), dst.zero)
        if _maps_cells(src, dst, mapping)
    )


@lru_cache(maxsize=64)
def _probes_by_image(k: int, f: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Positions in the size-k probe corpus, grouped by their table's image under ``f``.

    ``_maps_cells`` reads a probe only through that image table and its zero
    (index 0 in the corpus), so the probes of one group share the verdict
    of ``f`` into any target.  Groups come in order of their first position.
    """
    from .corpus import enumerate_hyper_bck  # deferred: corpus imports fuzzy

    img = _image_masks(f)
    groups: dict[tuple[int, ...], list[int]] = {}
    for pos, probe in enumerate(enumerate_hyper_bck(k, up_to_iso=True)):
        groups.setdefault(tuple(img[c] for c in probe.table), []).append(pos)
    return tuple(tuple(g) for g in groups.values())


@lru_cache(maxsize=64)
def _probe_hom_maps(
    target: HyperBCK, k: int
) -> tuple[tuple[HyperBCK, tuple[tuple[int, ...], ...]], ...]:
    """``(probe, mappings)`` for the size-k probes with at least two homs into ``target``.

    Probes come in corpus order and their hom mappings in lexicographic
    order; a probe with fewer than two homs cannot hold a parallel pair.
    """
    from .corpus import enumerate_hyper_bck  # deferred: corpus imports fuzzy

    probes = enumerate_hyper_bck(k, up_to_iso=True).models
    maps: list[list[tuple[int, ...]]] = [[] for _ in probes]
    for f in _zero_fixing_maps(k, 0, len(target.carrier), target.zero):
        for group in _probes_by_image(k, f):
            if _maps_cells(probes[group[0]], target, f):
                for pos in group:
                    maps[pos].append(f)
    return tuple((probes[pos], tuple(ms)) for pos, ms in enumerate(maps) if len(ms) > 1)


def _colliding_pairs(
    mappings: Sequence[tuple[int, ...]], outer: tuple[int, ...]
) -> Iterator[tuple[int, int]]:
    """Index pairs i < j whose maps agree after ``outer``, in i-then-j order.

    The maps are grouped by composite, so the scan is linear in the maps
    plus the pairs it yields.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    slots = []
    for i, m in enumerate(mappings):
        group = groups.setdefault(tuple(outer[v] for v in m), [])
        slots.append((group, len(group)))
        group.append(i)
    for group, at in slots:
        for j in group[at + 1 :]:
            yield group[at], j


@dataclass(frozen=True, slots=True)
class MonoVerdict:
    """Bounded decision of categorical left-cancellability, both flavors.

    A witness is a parallel pair (h, g) out of some probe with f.h = f.g
    and h != g; ``None`` means no witness up to the probe bound, i.e. the
    map is mono at that scale.
    """

    crisp_mono: bool
    fuzzy_mono: bool
    probe_bound: int
    crisp_witness: tuple[Hom, Hom] | None
    fuzzy_witness: tuple[Hom, Hom] | None

    @property
    def agree(self) -> bool:
        return self.crisp_mono == self.fuzzy_mono


def check_mono_equivalence(
    h: Hom,
    src: FuzzyHyperBCK,
    dst: FuzzyHyperBCK,
    probe_size_bound: int = 3,
) -> MonoVerdict:
    """Search all probe objects up to the bound for a separating parallel pair.

    The crisp search ranges over every algebra of carrier size up to the
    bound (one per relabeling class; verdicts are invariant under probe
    relabeling).  The fuzzy search reuses each crisp candidate pair and
    equips the probe with the pointwise minimum of mu along the two maps,
    which always yields a valid fuzzy structure making both maps fuzzy
    homomorphisms; membership degrees of the host are inherited, so no
    grid scan is needed.  The probe homs are tabled once per source and
    probe size, probes whose tables share an image under a map share its
    hom verdict, and each probe's pairs come from grouping its maps by
    composite.
    """
    _require_fuzzy_endpoints(h, src, dst)
    crisp_witness = None
    fuzzy_witness = None
    source = h.source
    for k in range(1, probe_size_bound + 1):
        for probe, mappings in _probe_hom_maps(source, k):
            for i, j in _colliding_pairs(mappings, h.mapping):
                p = Hom(probe, source, mappings[i])
                q = Hom(probe, source, mappings[j])
                if crisp_witness is None:
                    crisp_witness = (p, q)
                mu_probe = tuple(
                    min(src.mu[p.mapping[t]], src.mu[q.mapping[t]])
                    for t in range(len(probe.carrier))
                )
                if not fuzzy_condition_holds(probe, mu_probe):
                    # Cannot happen for homomorphic p, q; fall back to the
                    # everywhere-zero structure, which always qualifies.
                    mu_probe = (Fraction(0),) * len(probe.carrier)
                probe_fuzzy = FuzzyHyperBCK(probe, mu_probe)
                if is_fuzzy_hom(p, probe_fuzzy, src) and is_fuzzy_hom(q, probe_fuzzy, src):
                    if fuzzy_witness is None:
                        fuzzy_witness = (p, q)
                if crisp_witness and fuzzy_witness:
                    break
            if crisp_witness and fuzzy_witness:
                break
        if crisp_witness and fuzzy_witness:
            break
    return MonoVerdict(
        crisp_mono=crisp_witness is None,
        fuzzy_mono=fuzzy_witness is None,
        probe_bound=probe_size_bound,
        crisp_witness=crisp_witness,
        fuzzy_witness=fuzzy_witness,
    )


@dataclass(frozen=True, slots=True)
class SeparationVerdict:
    """Outcome of the level-separation promotion check.

    When the membership values of the two subalgebras are separated by a
    level alpha (strictly below it on the first minus zero, strictly above
    it on the second minus zero; zero itself carries the maximal value and
    needs no bound), every plain homomorphism between them is automatically
    a fuzzy one.  ``conclusion_holds`` is None when the hypothesis fails;
    the conclusion is then not claimed.
    """

    hypothesis_holds: bool
    hom_count: int | None
    conclusion_holds: bool | None
    failing_hom: Hom | None


def separation_promotes(
    host: FuzzyHyperBCK,
    g_subset: frozenset[str] | set[str],
    f_subset: frozenset[str] | set[str],
    alpha: Fraction,
) -> SeparationVerdict:
    alg = host.alg
    g_mask = alg.carrier.mask_of(g_subset)
    f_mask = alg.carrier.mask_of(f_subset)
    alg._require_subalgebra(g_mask)
    alg._require_subalgebra(f_mask)

    zbit = 1 << alg.zero
    below = all(host.mu[i] < alpha for i in iter_bits(g_mask & ~zbit))
    above = all(host.mu[i] > alpha for i in iter_bits(f_mask & ~zbit))
    if not (below and above):
        return SeparationVerdict(False, None, None, None)

    g_fuzzy = host.restrict_mask(g_mask)
    f_fuzzy = host.restrict_mask(f_mask)
    homs = enumerate_homs(g_fuzzy.alg, f_fuzzy.alg)
    for hom in homs:
        if not is_fuzzy_hom(hom, g_fuzzy, f_fuzzy):
            return SeparationVerdict(True, len(homs), False, hom)
    return SeparationVerdict(True, len(homs), True, None)
