"""Homomorphism checking, enumeration, level-set criterion, iso and mono tests."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

import pytest

import naive_oracle as naive
from conftest import grid_assignments, zero_moved_to, zero_mu
from hyperbck import (
    Carrier,
    ClaimViolation,
    FuzzyHyperBCK,
    HyperBCK,
    InputError,
    trivial_algebra,
    validate_fuzzy,
)
from hyperbck.category import coequalizer, equalizer, pullback, terminal, terminal_map
from hyperbck.category import product as product_of
from hyperbck.corpus import chain_example, enumerate_hyper_bck
from hyperbck.morphisms import (
    Hom,
    check_mono_equivalence,
    enumerate_homs,
    fuzzy_hom_via_cuts,
    is_fuzzy_hom,
    is_fuzzy_iso,
    is_hom,
    _first_collision,
    _never_lowers_membership,
    _probe_hom_maps,
    separation_promotes,
)


@pytest.fixture(scope="module")
def c3():
    return chain_example(3)


def test_hom_structural_errors(c2, c3):
    with pytest.raises(InputError, match="total"):
        Hom(c3.alg, c3.alg, (0, 1))
    with pytest.raises(InputError, match="range"):
        Hom(c2.alg, c2.alg, (0, 5))
    for mapping, code, reason in (
        ({"1": "1"}, "shape", "missing source"),
        ({"1": "1", "2": "2", "3": "1"}, "unknown-label", "unknown source"),
        ({"1": "1", "2": "9"}, "unknown-label", "unknown target"),
    ):
        with pytest.raises(InputError, match=reason) as refused:
            Hom.from_labels(c2.alg, c2.alg, mapping)
        assert refused.value.code == code
    f = Hom.identity(c2.alg)
    with pytest.raises(InputError, match="endpoints"):
        f.then(Hom.identity(c3.alg))
    with pytest.raises(InputError, match="bijective"):
        Hom(c2.alg, c2.alg, (0, 0)).inverse()


def test_list_mapping_is_stored_as_a_tuple(c3):
    h = Hom(c3.alg, c3.alg, [0, 2, 1])
    want = Hom.from_labels(c3.alg, c3.alg, {"1": "1", "2": "3", "3": "2"})
    assert h.mapping == (0, 2, 1)
    assert h == want and hash(h) == hash(want)


def test_is_hom_examples(c3):
    assert is_hom(Hom.identity(c3.alg))
    constant = terminal_map(c3.alg)
    assert is_hom(constant)
    swap = Hom.from_labels(c3.alg, c3.alg, {"1": "1", "2": "3", "3": "2"})
    assert not is_hom(swap)


def test_is_fuzzy_hom_examples(c3):
    assert is_fuzzy_hom(Hom.identity(c3.alg), c3, c3)

    to_terminal = terminal_map(c3.alg)
    assert not is_fuzzy_hom(to_terminal, c3, terminal())
    assert is_fuzzy_hom(to_terminal, zero_mu(c3.alg), terminal())

    sub = c3.restrict({"1", "2"})
    include = Hom.from_labels(sub.alg, c3.alg, {"1": "1", "2": "2"})
    assert is_fuzzy_hom(include, sub, c3)

    swap = Hom.from_labels(c3.alg, c3.alg, {"1": "1", "2": "3", "3": "2"})
    with pytest.raises(InputError, match="not a homomorphism"):
        is_fuzzy_hom(swap, c3, c3)


def test_fuzzy_hom_via_cuts_examples(c3):
    assert fuzzy_hom_via_cuts(Hom.identity(c3.alg), c3, c3)
    to_terminal = terminal_map(c3.alg)
    assert not fuzzy_hom_via_cuts(to_terminal, c3, terminal())
    # the witnessing level: the cut at 1/3 maps onto {O}, whose target cut is empty
    alpha = Fraction(1, 3)
    image = to_terminal.image_mask(c3.alpha_cut_mask(alpha))
    assert image & ~terminal().alpha_cut_mask(alpha)


def test_image_mask_matches_literal_image(c3):
    # every map of the 3-chain into itself, and seeded maps out of eight elements
    eight = HyperBCK(Carrier(tuple("abcdefgh"), 0), (255,) * 64)
    rng = random.Random(5)
    homs = [Hom(c3.alg, c3.alg, m) for m in product(range(3), repeat=3)]
    homs += [Hom(eight, c3.alg, tuple(rng.randrange(3) for _ in range(8))) for _ in range(8)]
    for h in homs:
        labels = h.source.carrier.labels
        label_map = h.as_label_map()
        for mask in range(1 << len(labels)):
            got = h.image_mask(mask)
            got_labels = {lab for t, lab in enumerate(h.target.carrier.labels) if got >> t & 1}
            assert got_labels == {label_map[x] for i, x in enumerate(labels) if mask >> i & 1}


def test_via_cuts_agrees_with_direct_check(corpus2):
    for src_alg in corpus2:
        for dst_alg in corpus2:
            homs = enumerate_homs(src_alg, dst_alg)
            for src in grid_assignments(src_alg)[:4]:
                for dst in grid_assignments(dst_alg)[:4]:
                    for h in homs:
                        assert is_fuzzy_hom(h, src, dst) == fuzzy_hom_via_cuts(h, src, dst)


def test_enumerate_homs_examples(c2, c3):
    t = trivial_algebra()
    assert [h.as_label_map() for h in enumerate_homs(t, t)] == [{"O": "O"}]
    assert [h.as_label_map() for h in enumerate_homs(c3.alg, t)] == [
        {"1": "O", "2": "O", "3": "O"}
    ]
    homs = enumerate_homs(c2.alg, c3.alg)
    assert len(homs) == 2  # frozen enumeration-derived count
    assert homs == enumerate_homs(c2.alg, c3.alg)  # deterministic


def test_enumerate_homs_matches_literal_oracle(c2, corpus_le2, corpus3):
    # The corpora keep zero at index 0; move it to index 1 and 2 on both ends.
    le2 = [c2.alg, *corpus_le2]
    le2 += [zero_moved_to(alg, 1) for alg in le2 if alg.size == 2]
    pairs = list(product(le2, le2))
    rng = random.Random(4)
    for _ in range(200):
        src = zero_moved_to(rng.choice(corpus3.models), rng.randrange(3))
        dst = zero_moved_to(rng.choice(corpus3.models), rng.randrange(3))
        pairs.append((src, dst))
    for src, dst in pairs:
        got = [h.mapping for h in enumerate_homs(src, dst)]
        assert got == naive.hom_maps(naive.table_of(src), naive.table_of(dst))


def test_enumerate_homs_matches_literal_oracle_past_three_elements(product_pairs, subalgebra_pairs):
    counts = []
    for src, dst in product_pairs + subalgebra_pairs:
        got = [h.mapping for h in enumerate_homs(src, dst)]
        assert got == naive.hom_maps(naive.table_of(src), naive.table_of(dst))
        counts.append(len(got))
    assert len(subalgebra_pairs) == 36 and {src.size for src, _ in subalgebra_pairs} == {6, 8}
    assert max(counts) > 2  # some hom-set holds more than the zero map and the identity


def test_is_hom_matches_literal_oracle_on_every_zero_fixing_map_past_three_elements(
    product_pairs, subalgebra_pairs
):
    verdicts = set()
    for src, dst in product_pairs + subalgebra_pairs:
        labels, zero, table = naive.table_of(src)
        dst_labels, dst_zero, dst_table = naive.table_of(dst)
        for f in product(range(dst.size), repeat=src.size):
            if f[src.zero] != dst.zero:
                continue
            label_map = dict(zip(labels, map(dst_labels.__getitem__, f)))
            want = naive.is_hom(table, zero, labels, dst_table, dst_zero, label_map)
            assert is_hom(Hom(src, dst, f)) == want
            verdicts.add(want)
    assert verdicts == {False, True}


def test_no_map_that_breaks_one_cell_is_a_hom(subalgebra_pairs):
    # The target is the source with bit 0 of one cell flipped ({1} where that would empty it),
    # so the identity breaks the hom equation in that cell only; each cell takes a turn.
    for src in {src for src, _ in subalgebra_pairs if src.size == 6}:
        identity = tuple(range(src.size))
        assert identity in [h.mapping for h in enumerate_homs(src, src)]
        for c, cell in enumerate(src.table):
            dst = HyperBCK(src.carrier, src.table[:c] + (cell ^ 1 or 2,) + src.table[c + 1 :])
            assert not is_hom(Hom(src, dst, identity))
            assert identity not in [h.mapping for h in enumerate_homs(src, dst)]


def oracle_is_hom(h: Hom) -> bool:
    labels, zero, table = naive.table_of(h.source)
    dst_labels, dst_zero, dst_table = naive.table_of(h.target)
    label_map = dict(zip(labels, map(dst_labels.__getitem__, h.mapping)))
    return naive.is_hom(table, zero, labels, dst_table, dst_zero, label_map)


def test_every_hom_born_proved_agrees_with_the_literal_oracle(
    corpus_le2, product_pairs, subalgebra_pairs
):
    # The hom-sets of the seeded pairs (products of 4, 6 and 9 elements, subalgebras of 6 and 8
    # of products, all also with the zero moved) and their composites with the target's
    # endomorphisms; the mono probe's witnesses; and the maps the constructions return.
    born = []
    for src, dst in product_pairs + subalgebra_pairs:
        homs = enumerate_homs(src, dst)
        born += homs
        born += [h.then(e) for h in homs for e in enumerate_homs(dst, dst)]
    assert all(h._hom is True for h in born)  # before any check
    for src, dst in product(corpus_le2, corpus_le2):
        a, c = zero_mu(src), zero_mu(dst)
        homs = enumerate_homs(src, dst)
        for f in homs:
            verdict = check_mono_equivalence(f, a, c, probe_size_bound=2)
            born += verdict.crisp_witness or ()
            made = [product_of([a, c])]
            made += [construct(f, g, a, c) for g in homs for construct in (coequalizer, equalizer)]
            for g in enumerate_homs(dst, dst):
                try:
                    made.append(pullback(f, g, a, c, c))
                except ClaimViolation:
                    pass
            born += [leg for result in made for leg in result.legs.values()]
    kinds = {(h.source.size, h.target.size) for h in born}
    assert len(born) == 1988 and {(6, 3), (8, 3), (6, 6), (6, 4), (4, 2), (2, 2)} <= kinds
    for h in born:
        assert h._hom is not None and h._hom == oracle_is_hom(h)


def test_a_composite_is_born_proved_only_when_both_maps_are(c3):
    alg = c3.alg
    proved = enumerate_homs(alg, alg)
    by_hand = Hom.identity(alg)
    assert by_hand in proved and by_hand._hom is None  # a map built by hand starts unproved
    assert (hash(by_hand), repr(by_hand)) == (hash(proved[-1]), repr(proved[-1]))
    for h in proved:
        assert h.then(by_hand)._hom is None and by_hand.then(h)._hom is None
    assert is_hom(by_hand) and by_hand._hom is True
    assert all(h.then(by_hand)._hom is True for h in proved)
    assert all(Hom(alg, alg, h.mapping)._hom is None for h in proved)


def test_a_composite_with_a_non_hom_is_refused(c3):
    # A ``then`` that marks every composite proved, or any composite with one proved side,
    # calls these composites homs.
    alg = c3.alg
    proved = enumerate_homs(alg, alg)
    maps = [Hom(alg, alg, f) for f in product(range(3), repeat=3) if f[alg.zero] == alg.zero]
    bad = [f for f in maps if not oracle_is_hom(f)]
    assert bad and all(not is_hom(f) and f._hom is False for f in bad)
    identity = Hom.identity(alg)
    for f in bad:
        for composite in (f.then(identity), identity.then(f), proved[-1].then(f)):
            assert composite._hom is None and not is_hom(composite)
        for h in proved:
            for composite in (f.then(h), h.then(f)):
                assert composite._hom is None and is_hom(composite) == oracle_is_hom(composite)
        assert not is_hom(f)  # still refused after it is composed


def test_is_fuzzy_iso_examples(c3):
    assert is_fuzzy_iso(Hom.identity(c3.alg), c3, c3)

    top = FuzzyHyperBCK(c3.alg, (Fraction(1),) * 3)
    ident = Hom.identity(c3.alg)
    assert is_fuzzy_hom(ident, c3, top)
    assert not is_fuzzy_iso(ident, c3, top)  # inequality strict somewhere

    collapse = terminal_map(c3.alg)
    assert not is_fuzzy_iso(collapse, zero_mu(c3.alg), terminal())


def test_identity_and_composition_are_fuzzy_homs(corpus2):
    for alg in corpus2.models[:6]:
        for fz in grid_assignments(alg)[:3]:
            assert is_fuzzy_hom(Hom.identity(alg), fz, fz)
    # composition closure across a chain of restrictions
    c3 = chain_example(3)
    sub = c3.restrict({"1", "2"})
    single = c3.restrict({"1"})
    f = Hom.from_labels(single.alg, sub.alg, {"1": "1"})
    g = Hom.from_labels(sub.alg, c3.alg, {"1": "1", "2": "2"})
    assert is_fuzzy_hom(f, single, sub) and is_fuzzy_hom(g, sub, c3)
    assert is_fuzzy_hom(f.then(g), single, c3)


def test_mono_injective_and_collapsing(c2):
    fz = zero_mu(c2.alg)
    ident = check_mono_equivalence(Hom.identity(c2.alg), fz, fz, probe_size_bound=2)
    assert ident.crisp_mono and ident.fuzzy_mono and ident.agree

    collapse = Hom(c2.alg, c2.alg, (0, 0))
    assert is_hom(collapse)
    verdict = check_mono_equivalence(collapse, fz, fz, probe_size_bound=2)
    assert not verdict.crisp_mono and not verdict.fuzzy_mono and verdict.agree
    h, g = verdict.crisp_witness
    assert h != g and h.then(collapse) == g.then(collapse)


def test_mono_probe_refuses_a_bound_past_the_corpus_only_when_reached(c2):
    # There is no size-4 probe corpus: a bound of 4 is refused when the
    # search gets there, so a witness found by size 3 still returns.
    fz = zero_mu(c2.alg)
    with pytest.raises(InputError, match="limited to sizes"):
        check_mono_equivalence(Hom.identity(c2.alg), fz, fz, probe_size_bound=4)
    verdict = check_mono_equivalence(Hom(c2.alg, c2.alg, (0, 0)), fz, fz, probe_size_bound=4)
    assert not verdict.crisp_mono and not verdict.fuzzy_mono


def test_mono_probe_refuses_a_source_past_the_map_bound_only_when_reached():
    # Probe size k builds the image tuple of each size-k probe under each of the
    # m^(k-1) zero-fixing maps: 4^2 * 8,048 is within HOM_MAP_BOUND, 64^2 * 8,048 is not.
    small, big = chain_example(4).alg, chain_example(64).alg
    fz = zero_mu(small)
    verdict = check_mono_equivalence(Hom.identity(small), fz, fz)
    assert verdict.crisp_mono and verdict.fuzzy_mono
    fz = zero_mu(big)
    start = time.perf_counter()
    with pytest.raises(InputError, match="64\\^2 maps on 8048 size-3 probes") as refused:
        check_mono_equivalence(Hom.identity(big), fz, fz)
    assert time.perf_counter() - start < 1
    assert (refused.value.code, refused.value.location) == ("too-large", "carrier")
    # The zero map's witness comes from the size-2 probes, before size 3 is reached.
    verdict = check_mono_equivalence(Hom(big, big, (0,) * 64), fz, fz)
    assert not verdict.crisp_mono and verdict.crisp_witness[0].source.size == 2


def test_mono_witness_matches_literal_scan(corpus_le2):
    # Every hom of size <= 2, also between copies with zero at index 1.
    models = [p for k in (1, 2) for p in enumerate_hyper_bck(k, up_to_iso=True)]
    probes = [naive.table_of(p) for p in models]
    moved = [zero_moved_to(alg, 1) if alg.size == 2 else alg for alg in corpus_le2]
    checked = 0
    for le2 in (corpus_le2, moved):
        for src_alg in le2:
            source = naive.table_of(src_alg)
            for dst_alg in le2:
                for h in enumerate_homs(src_alg, dst_alg):
                    verdict = check_mono_equivalence(
                        h, zero_mu(src_alg), zero_mu(dst_alg), probe_size_bound=2
                    )
                    want = naive.mono_witness(
                        probes,
                        source,
                        {lab: dst_alg.carrier.labels[v] for lab, v in zip(source[0], h.mapping)},
                    )
                    assert verdict.crisp_mono == (want is None)
                    if want is not None:
                        p, q = verdict.crisp_witness
                        assert (p.source, p.mapping, q.mapping) == (models[want[0]], *want[1:])
                    checked += 1
    assert checked == 2 * 116


def test_first_collision_is_the_first_pair_in_scan_order():
    # Composites A B B A: the i-then-j scan meets (0, 3) before (1, 2).
    maps = [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert _first_collision(maps, (0, 7, 8, 8, 7)) == (0, 3)
    # Composites A B A B A: (0, 2) comes before (0, 4), (1, 3) and (2, 4).
    maps.append((0, 5))
    assert _first_collision(maps, (0, 7, 8, 7, 8, 7)) == (0, 2)
    # Composites A B C D E: no two maps agree.
    assert _first_collision(maps, (0, 1, 2, 3, 4, 5)) is None


def test_the_fuzzy_witness_is_the_crisp_witness(corpus_le2):
    # Every hom of size <= 2, also between copies with zero at index 1, with
    # source memberships over {0, 1/2, 1} that pass and that fail the
    # membership inequality: the crisp pair always lifts, and the verdict
    # does not depend on the memberships.
    moved = [zero_moved_to(alg, 1) if alg.size == 2 else alg for alg in corpus_le2]
    degrees = (Fraction(0), Fraction(1, 2), Fraction(1))
    checked, failing = 0, 0
    for le2 in (corpus_le2, moved):
        for src_alg in le2:
            for dst_alg in le2:
                dst = zero_mu(dst_alg)
                for h in enumerate_homs(src_alg, dst_alg):
                    for bound in (1, 2, 3):
                        plain = check_mono_equivalence(h, zero_mu(src_alg), dst, bound)
                        for mu in product(degrees, repeat=src_alg.size):
                            src = FuzzyHyperBCK(src_alg, mu)
                            failing += not validate_fuzzy(src).passed
                            verdict = check_mono_equivalence(h, src, dst, bound)
                            assert verdict.fuzzy_mono == verdict.crisp_mono
                            assert verdict.fuzzy_witness == verdict.crisp_witness
                            assert verdict == plain
                            checked += 1
    assert failing > 0 and checked - failing > 0
    assert checked == 3 * 2 * sum(
        3 ** src_alg.size * len(enumerate_homs(src_alg, dst_alg))
        for src_alg in corpus_le2
        for dst_alg in corpus_le2
    )


def test_probe_hom_table_matches_literal_scan(corpus_le2, corpus3):
    # each probe in corpus order, each zero-fixing map in lexicographic order, the literal test
    targets = [chain_example(2).alg, *corpus_le2]
    targets += [zero_moved_to(alg, k) for alg in corpus_le2 for k in range(1, alg.size)]
    targets += random.Random(19).sample(corpus3.models, 20)
    tables = 0  # targets with a probe of two homs or more
    for k in (1, 2, 3):
        probes = enumerate_hyper_bck(k, up_to_iso=True).models
        literal = [naive.table_of(p) for p in probes]
        for target in targets:
            dst_labels, dst_zero, dst_table = naive.table_of(target)
            want, label_maps = [], {}  # the maps as label dicts, once per probe carrier
            for probe, (labels, zero, table) in zip(probes, literal):
                if (labels, zero) not in label_maps:
                    label_maps[labels, zero] = [
                        (f, dict(zip(labels, map(dst_labels.__getitem__, f))))
                        for f in product(range(target.size), repeat=k)
                        if f[labels.index(zero)] == target.zero
                    ]
                homs = tuple(
                    f
                    for f, label_map in label_maps[labels, zero]
                    if naive.is_hom(table, zero, labels, dst_table, dst_zero, label_map)
                )
                if len(homs) > 1:
                    want.append((probe, homs))
            assert list(_probe_hom_maps(target, k)) == want
            tables += bool(want)
    assert tables > 0


def zero_table_host() -> HyperBCK:
    cells = {(x, y): ["O"] for x in "Oab" for y in "Oab"}
    return HyperBCK.from_sets(["O", "a", "b"], "O", cells)


def test_separation_promotes_hypothesis_and_conclusion():
    host_mu = {"O": "1", "a": "1/4", "b": "3/4"}
    host = FuzzyHyperBCK.from_map(zero_table_host(), host_mu)
    verdict = separation_promotes(host, {"O", "a"}, {"O", "b"}, Fraction(1, 2))
    assert verdict.hypothesis_holds
    assert verdict.conclusion_holds and verdict.failing_hom is None
    assert verdict.hom_count == 2  # collapse-to-zero and a |-> b

    # the same host with its zero at index 1: the zero is skipped wherever it sits
    cells = {(x, y): ["O"] for x in "aOb" for y in "aOb"}
    moved = FuzzyHyperBCK.from_map(HyperBCK.from_sets(["a", "O", "b"], "O", cells), host_mu)
    assert separation_promotes(moved, {"O", "a"}, {"O", "b"}, Fraction(1, 2)) == verdict

    # zero-only source: the strict bound is vacuous
    vac = separation_promotes(host, {"O"}, {"O", "b"}, Fraction(1, 2))
    assert vac.hypothesis_holds and vac.conclusion_holds

    # membership above the level on the first subalgebra breaks the hypothesis
    broken = separation_promotes(host, {"O", "b"}, {"O", "a"}, Fraction(1, 2))
    assert not broken.hypothesis_holds
    assert broken.conclusion_holds is None

    with pytest.raises(InputError, match="not a subalgebra"):
        separation_promotes(host, {"a"}, {"O"}, Fraction(1, 2))


def test_separation_promotes_takes_its_level_through_the_one_degree_rule():
    host = FuzzyHyperBCK.from_map(zero_table_host(), {"O": "1", "a": "1/4", "b": "3/4"})
    refusals = [(0.75, "mu-syntax"), (2, "mu-range"), ("1/x", "mu-syntax"), (-1, "mu-range")]
    for alpha, code in refusals:
        with pytest.raises(InputError) as exc:
            separation_promotes(host, {"O", "a"}, {"O", "b"}, alpha)
        assert exc.value.code == code
    verdict = separation_promotes(host, {"O", "a"}, {"O", "b"}, Fraction(1, 2))
    assert separation_promotes(host, {"O", "a"}, {"O", "b"}, "1/2") == verdict
    assert separation_promotes(host, {"O", "b"}, {"O", "a"}, "1/2").hypothesis_holds is False
    assert separation_promotes(host, {"O"}, {"O", "b"}, 0).hypothesis_holds


def test_separation_promotes_names_the_labels_of_a_non_subalgebra():
    host = FuzzyHyperBCK.from_map(zero_table_host(), {"O": "1", "a": "1/4", "b": "3/4"})
    with pytest.raises(InputError, match=r"^\['a', 'b'\] is not a subalgebra$"):
        separation_promotes(host, {"O"}, {"b", "a"}, Fraction(1, 2))  # lacks zero
    chain = chain_example(3)
    with pytest.raises(InputError, match=r"^\['1', '3'\] is not a subalgebra$"):
        separation_promotes(chain, {"1", "2"}, {"1", "3"}, Fraction(1, 2))  # 3*3 holds 2
    # with both subsets refused, the first one is named
    with pytest.raises(InputError, match=r"^\['a'\] is not a subalgebra$"):
        separation_promotes(host, {"a"}, {"b"}, Fraction(1, 2))
    with pytest.raises(InputError, match=r"^\['1', '3'\] is not a subalgebra$"):
        separation_promotes(chain, {"1", "3"}, {"2"}, Fraction(1, 2))
    with pytest.raises(InputError, match=r"^a subalgebra candidate must be non-empty$"):
        separation_promotes(chain, set(), {"2"}, Fraction(1, 2))


def test_separation_holds_across_enumerated_hosts(corpus2):
    for alg in corpus2:
        for host in grid_assignments(alg)[:5]:
            masks = [
                m for m in range(1, alg.carrier.full_mask + 1) if alg.is_subalgebra_mask(m)
            ]
            for gm in masks:
                for fm in masks:
                    g_labels = alg.carrier.labels_of(gm)
                    f_labels = alg.carrier.labels_of(fm)
                    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                        verdict = separation_promotes(host, g_labels, f_labels, alpha)
                        if verdict.hypothesis_holds:
                            assert verdict.conclusion_holds


def test_never_lowers_membership_agrees_with_fraction_comparison(corpus_le2):
    equal_apart = 0
    for a in corpus_le2:
        for b in corpus_le2:
            homs = enumerate_homs(a, b)
            for fb in grid_assignments(b):
                # the same degrees held in new objects, so equal degrees meet unshared
                copy = FuzzyHyperBCK(b, tuple(Fraction(v.numerator, v.denominator) for v in fb.mu))
                for fa in grid_assignments(a):
                    for h in homs:
                        for dst in (fb, copy):
                            pairs = [(dst.mu[h.mapping[i]], v) for i, v in enumerate(fa.mu)]
                            literal = all(w >= v for w, v in pairs)
                            assert _never_lowers_membership(h, fa, dst) == literal
                            equal_apart += any(w is not v and w == v for w, v in pairs)
    assert equal_apart > 1000
