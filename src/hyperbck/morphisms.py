"""Homomorphisms of hyper BCK-algebras and their fuzzy refinements.

A homomorphism here is the strong form: it fixes zero and the pointwise
image of every cell equals the cell of the images,

    {f(t) : t in x*y}  =  f(x) * f(y).

The fuzzy refinement additionally asks mu_target(f(x)) >= mu_source(x).
Checking, exhaustive enumeration, the level-set criterion, isomorphism and
bounded mono tests all live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

from .core import HyperBCK, InputError, _image_masks, _walk, iter_bits
from .corpus import enumerate_hyper_bck
from .fuzzy import FuzzyHyperBCK, fuzzy_value

HOM_MAP_BOUND = 1 << 18  # zero-fixing maps past which enumerate_homs refuses before its walk


@dataclass(frozen=True, slots=True)
class Hom:
    """A total element map between two carriers, by source index.

    Only totality and range are enforced at construction; whether the map
    is a homomorphism is decided by :func:`is_hom`, kept in ``_hom`` apart
    from equality, hash and repr.  A map built here starts unproved; those
    of the hom-set walk and the mono probe, the constructions' legs and
    coequalizer mediators, and composites of proved homs, are born proved.
    """

    source: HyperBCK
    target: HyperBCK
    mapping: tuple[int, ...]
    _hom: bool | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != len(self.source.carrier):
            raise InputError("map must be total on the source carrier")
        m = len(self.target.carrier)
        if any(type(v) is not int or not 0 <= v < m for v in self.mapping):
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
    def _trusted(
        cls, source: HyperBCK, target: HyperBCK, mapping: tuple[int, ...], hom: bool | None = None
    ) -> Hom:
        """Build from a mapping tuple already known to be total and in range, with the
        :func:`is_hom` verdict ``hom`` if the caller has proved it (None if unknown)."""
        h = object.__new__(cls)
        object.__setattr__(h, "source", source)
        object.__setattr__(h, "target", target)
        object.__setattr__(h, "mapping", mapping)
        object.__setattr__(h, "_hom", hom)
        return h

    @classmethod
    def identity(cls, alg: HyperBCK) -> Hom:
        return cls(alg, alg, tuple(range(len(alg.carrier))))

    def as_label_map(self) -> dict[str, str]:
        return {
            lab: self.target.carrier.labels[self.mapping[i]]
            for i, lab in enumerate(self.source.carrier.labels)
        }

    def then(self, other: Hom) -> Hom:
        """Composition ``other after self`` (source of other = target of self); a composite
        of two proved homs is a hom, and is born proved."""
        if other.source is not self.target and other.source != self.target:
            raise InputError("composition endpoints do not match")
        mapping = _compose(self.mapping, other.mapping)
        return Hom._trusted(self.source, other.target, mapping, self._hom and other._hom or None)

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


def _compose(inner: tuple[int, ...], outer: tuple[int, ...]) -> tuple[int, ...]:
    """The mapping of ``outer`` after ``inner``."""
    return tuple(map(outer.__getitem__, inner))


def is_hom(h: Hom) -> bool:
    """Strong homomorphism test, taken once per map and kept on it: zero is fixed and images of
    cells match cells."""
    if h._hom is None:
        src, dst, mapping = h.source, h.target, h.mapping
        cells = zip(*_table_pairs(len(mapping)), map(iter_bits, src.table))
        verdict = mapping[src.zero] == dst.zero and _first_broken_cell(
            cells, mapping, [1 << v for v in mapping], dst.table, len(dst.carrier)
        ) is None
        object.__setattr__(h, "_hom", verdict)
    return h._hom


@lru_cache(maxsize=8)  # two tuples of n*n entries: 1 MiB at PRODUCT_BOUND
def _table_pairs(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The x and the y of each table position of an n-element carrier, in table order."""
    return tuple(x for x in range(n) for _ in range(n)), tuple(range(n)) * n


def _first_broken_cell(
    cells: Iterable[tuple], mapping: Sequence[int], image: list[int], dst_table: tuple, m: int
) -> tuple[int, int] | None:
    """The hom equation: the first ``(x, y)`` of ``cells``, each ``(x, y, bits of x*y)``, whose
    image ``{f(t) : t in x*y}`` is not the cell ``f(x) * f(y)`` of the m-element target, or None.

    ``mapping`` needs values at x, y and every t read, and ``image[t]`` is ``1 << f(t)``.
    """
    for x, y, bits in cells:
        out = 0
        for t in bits:
            out |= image[t]
        if out != dst_table[mapping[x] * m + mapping[y]]:
            return x, y
    return None


def _require_fuzzy_endpoints(h: Hom, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> None:
    if (h.source is not src.alg and h.source != src.alg) or (
        h.target is not dst.alg and h.target != dst.alg
    ):
        message = "map endpoints do not match the given fuzzy structures"
        raise InputError(message, "endpoint-mismatch")
    if not is_hom(h):
        raise InputError("map is not a homomorphism", "not-hom")


def is_fuzzy_hom(h: Hom, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> bool:
    """True iff mu_target(f(x)) >= mu_source(x) for every x (f already a hom)."""
    _require_fuzzy_endpoints(h, src, dst)
    return _never_lowers_membership(h, src, dst)


def _at_least(w: Fraction, v: Fraction) -> bool:
    """``w >= v``: Fraction's exact test, cross-multiplied without its type dispatch."""
    return w is v or w.numerator * v.denominator >= v.numerator * w.denominator


def _never_lowers_membership(h: Hom, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> bool:
    """The fuzzy-hom inequality of a hom, each ``w >= v`` by :func:`_at_least`."""
    return all(map(_at_least, map(dst.mu.__getitem__, h.mapping), src.mu))


def fuzzy_hom_via_cuts(h: Hom, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> bool:
    """Level-set criterion: each level set maps into the matching level set.

    The source's levels suffice: x lies in the source cut at mu_src(x) and in
    no higher one, so if each of those cuts maps into the target cut at the
    same level, every cut does.  This must agree with :func:`is_fuzzy_hom`
    on every input.
    """
    _require_fuzzy_endpoints(h, src, dst)
    levels, cuts, _ = src._cuts()
    image = _image_masks(h.mapping)
    return not any(image[c] & ~dst.alpha_cut_mask(a) for a, c in zip(levels, cuts))


def is_fuzzy_iso(h: Hom, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> bool:
    """Bijective hom with hom inverse and exactly matching membership."""
    _require_fuzzy_endpoints(h, src, dst)
    if not h.is_bijective() or not is_hom(h.inverse()):
        return False
    return all(dst.mu[h.mapping[i]] == v for i, v in enumerate(src.mu))


@lru_cache(maxsize=1 << 12)
def enumerate_homs(src: HyperBCK, dst: HyperBCK) -> tuple[Hom, ...]:
    """All homomorphisms src -> dst, in lexicographic order of the value tuple.

    A forward-checked walk on ``core._walk``, the loop that also lists the
    regular congruences: the values are assigned in index order, zero's only
    candidate being zero, and each assignment tests the hom equation on the
    cells it completes, so a partial map that breaks a cell is never extended.
    Refused with ``too-large`` before any work when the m^(n-1) zero-fixing
    maps pass ``HOM_MAP_BOUND``.
    """
    n, m = len(src.carrier), len(dst.carrier)
    if m ** (n - 1) > HOM_MAP_BOUND:
        message = f"{m}^{n - 1} zero-fixing maps exceed the hom enumeration bound {HOM_MAP_BOUND}"
        raise InputError(message, "too-large", "carrier")
    checks: list[list] = [[] for _ in range(n)]  # per k, the cells (x, y, bits) k completes
    for x, y, cell in zip(*_table_pairs(n), src.table):
        checks[(cell | 1 << x | 1 << y).bit_length() - 1].append((x, y, iter_bits(cell)))
    dst_table, image = dst.table, [0] * n

    def ok(k: int, mapping: list) -> bool:
        image[k] = 1 << mapping[k]
        return _first_broken_cell(checks[k], mapping, image, dst_table, m) is None

    domains = [range(m)] * n
    domains[src.zero] = (dst.zero,)
    return tuple([Hom._trusted(src, dst, f, True) for f in _walk(domains, ok)])


@lru_cache(maxsize=64)
def _probes_by_image(k: int, g: tuple[int, ...]) -> dict[bytes, tuple[int, ...]]:
    """Positions in the size-k probe corpus by their table's image under ``g``, a map into
    ``range(k)``, in corpus order.  Masks of k bits and their images are bytes, so an image
    is one ``bytes.translate`` of the table through ``_image_masks(g)``, padded to 256."""
    img = bytes(_image_masks(g)).ljust(256, b"\0")
    groups: dict[bytes, list[int]] = {}
    for pos, probe in enumerate(enumerate_hyper_bck(k, up_to_iso=True)):
        groups.setdefault(bytes(probe.table).translate(img), []).append(pos)
    return {image: tuple(group) for image, group in groups.items()}


@lru_cache(maxsize=64)
def _probe_hom_maps(
    target: HyperBCK, k: int
) -> tuple[tuple[HyperBCK, tuple[tuple[int, ...], ...]], ...]:
    """``(probe, mappings)`` for the size-k probes with at least two homs into ``target``.

    Every probe has its zero at index 0, so a map f with ``f(0)`` the target's
    zero is a hom exactly when the probe's table has the image
    ``(T[f(x)*m + f(y)] for x, y)`` under f, T the target's table and m its
    size: that is the hom equation over the whole table.  So the probes f maps
    homomorphically are one group of :func:`_probes_by_image`, found by one
    lookup.  The groups are those of f's ranks (its values relabeled ``0..``
    in order), so the cells are read as images under the ranks, and a cell
    that is no image under f as the empty mask, which no probe's image holds.
    Probes come in corpus order and their hom mappings in lexicographic
    order; a probe with fewer than two homs cannot hold a parallel pair.
    Refused with ``too-large`` when the m^(k-1) maps times the size-k probes
    pass ``HOM_MAP_BOUND``.
    """
    probes = enumerate_hyper_bck(k, up_to_iso=True).models
    m, table = len(target.carrier), target.table
    if m ** (k - 1) * len(probes) > HOM_MAP_BOUND:
        message = f"{m}^{k - 1} maps on {len(probes)} size-{k} probes pass {HOM_MAP_BOUND}"
        raise InputError(message, "too-large", "carrier")
    first, maps = {}, {}  # by position: a probe's first map; the maps of those with two or more
    for f in product((target.zero,), *[range(m)] * (k - 1)):
        ranks = tuple(map(sorted(set(f)).index, f))
        as_ranks = dict(zip(_image_masks(f), _image_masks(ranks)))
        image = bytes([as_ranks.get(table[fx * m + fy], 0) for fx in f for fy in f])
        for pos in _probes_by_image(k, ranks).get(image, ()):
            if (g := first.setdefault(pos, f)) is not f:
                maps.setdefault(pos, [g]).append(f)
    return tuple((probes[pos], tuple(maps[pos])) for pos in sorted(maps))


def _first_collision(
    mappings: Sequence[tuple[int, ...]], outer: tuple[int, ...]
) -> tuple[int, int] | None:
    """The first index pair i < j, in i-then-j order, whose maps agree after ``outer``, or None."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, m in enumerate(mappings):
        groups.setdefault(tuple(outer[v] for v in m), []).append(i)
    return min(((g[0], g[1]) for g in groups.values() if len(g) > 1), default=None)


@dataclass(frozen=True, slots=True)
class MonoVerdict:
    """Bounded decision of categorical left-cancellability, both flavors.

    A witness is a parallel pair (h, g) out of some probe with f.h = f.g
    and h != g; ``None`` means no witness up to the probe bound, i.e. the
    map is mono at that scale.  A crisp witness lifts to a fuzzy one (see
    :func:`check_mono_equivalence`), so the two witnesses are one pair.
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

    The search ranges over every algebra of carrier size up to the bound
    (one per relabeling class; verdicts are invariant under probe
    relabeling) and stops at the first pair p != q of probe homs into the
    source with f.p = f.q.  That pair is the fuzzy witness too: on the
    probe, the pointwise minimum of mu along p and q makes both maps fuzzy
    homs, since mu(p t) >= min(mu(p t), mu(q t)), so no grid scan or check
    of the lift is needed (the tests hold it to the literal scan).  The probe
    homs are tabled once per source and probe size, and the probes a map
    sends homomorphically come from one lookup of its image table.  A probe
    size the search reaches is refused past the corpus or ``HOM_MAP_BOUND``.
    """
    _require_fuzzy_endpoints(h, src, dst)
    source = h.source
    for k in range(1, probe_size_bound + 1):
        for probe, mappings in _probe_hom_maps(source, k):
            pair = _first_collision(mappings, h.mapping)
            if pair is not None:
                witness = tuple(Hom._trusted(probe, source, mappings[i], True) for i in pair)
                return MonoVerdict(False, False, probe_size_bound, witness, witness)
    return MonoVerdict(True, True, probe_size_bound, None, None)


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
    alpha: int | str | Fraction,
) -> SeparationVerdict:
    g_fuzzy, f_fuzzy = host.restrict(g_subset), host.restrict(f_subset)  # refused g first
    alpha = fuzzy_value(alpha)
    below = all(v < alpha for i, v in enumerate(g_fuzzy.mu) if i != g_fuzzy.alg.zero)
    above = all(v > alpha for i, v in enumerate(f_fuzzy.mu) if i != f_fuzzy.alg.zero)
    if not (below and above):
        return SeparationVerdict(False, None, None, None)

    homs = enumerate_homs(g_fuzzy.alg, f_fuzzy.alg)  # homs with these endpoints, by the walk
    failing = next((h for h in homs if not _never_lowers_membership(h, g_fuzzy, f_fuzzy)), None)
    return SeparationVerdict(True, len(homs), failing is None, failing)
