"""Homomorphism checking, enumeration, level-set criterion, iso and mono tests."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

import naive_oracle as naive
from conftest import grid_assignments, zero_moved_to
from hyperbck import Carrier, FuzzyHyperBCK, HyperBCK, InputError, trivial_algebra
from hyperbck.category import terminal, terminal_map
from hyperbck.corpus import chain_example, enumerate_hyper_bck
from hyperbck.morphisms import (
    Hom,
    check_mono_equivalence,
    enumerate_homs,
    fuzzy_hom_via_cuts,
    is_fuzzy_hom,
    is_fuzzy_iso,
    is_hom,
    _colliding_pairs,
    _probe_hom_maps,
    separation_promotes,
)


@pytest.fixture(scope="module")
def c2():
    return chain_example(2)


@pytest.fixture(scope="module")
def c3():
    return chain_example(3)


def zero_mu(alg: HyperBCK) -> FuzzyHyperBCK:
    return FuzzyHyperBCK(alg, (Fraction(0),) * alg.size)


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


def test_colliding_pairs_come_in_pair_scan_order():
    # Composites A B B A: the i-then-j scan meets (0, 3) before (1, 2).
    maps = [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert list(_colliding_pairs(maps, (0, 7, 8, 8, 7))) == [(0, 3), (1, 2)]
    # Composites A B A B A: every colliding pair, i first, then j.
    maps.append((0, 5))
    assert list(_colliding_pairs(maps, (0, 7, 8, 7, 8, 7))) == [(0, 2), (0, 4), (1, 3), (2, 4)]


def test_probe_hom_table_matches_literal_scan(c2, corpus2):
    # The size-3 table into a size-2 source with zero at index 0 and one with zero at 1.
    probes = enumerate_hyper_bck(3, up_to_iso=True).models
    literal = [naive.table_of(p) for p in probes]
    for source in (c2.alg, zero_moved_to(corpus2.models[0], 1)):
        target = naive.table_of(source)
        want = []
        for probe, table in zip(probes, literal):
            maps = tuple(naive.hom_maps(table, target))
            if len(maps) > 1:
                want.append((probe, maps))
        assert want
        assert list(_probe_hom_maps(source, 3)) == want


def zero_table_host() -> HyperBCK:
    cells = {(x, y): ["O"] for x in "Oab" for y in "Oab"}
    return HyperBCK.from_sets(["O", "a", "b"], "O", cells)


def test_separation_promotes_hypothesis_and_conclusion():
    host = FuzzyHyperBCK.from_map(
        zero_table_host(), {"O": "1", "a": "1/4", "b": "3/4"}
    )
    verdict = separation_promotes(host, {"O", "a"}, {"O", "b"}, Fraction(1, 2))
    assert verdict.hypothesis_holds
    assert verdict.conclusion_holds and verdict.failing_hom is None
    assert verdict.hom_count == 2  # collapse-to-zero and a |-> b

    # zero-only source: the strict bound is vacuous
    vac = separation_promotes(host, {"O"}, {"O", "b"}, Fraction(1, 2))
    assert vac.hypothesis_holds and vac.conclusion_holds

    # membership above the level on the first subalgebra breaks the hypothesis
    broken = separation_promotes(host, {"O", "b"}, {"O", "a"}, Fraction(1, 2))
    assert not broken.hypothesis_holds
    assert broken.conclusion_holds is None

    with pytest.raises(InputError, match="not a subalgebra"):
        separation_promotes(host, {"a"}, {"O"}, Fraction(1, 2))


def test_separation_promotes_names_the_labels_of_a_non_subalgebra():
    host = FuzzyHyperBCK.from_map(zero_table_host(), {"O": "1", "a": "1/4", "b": "3/4"})
    with pytest.raises(InputError, match=r"^\['a', 'b'\] is not a subalgebra$"):
        separation_promotes(host, {"O"}, {"b", "a"}, Fraction(1, 2))  # lacks zero
    chain = chain_example(3)
    with pytest.raises(InputError, match=r"^\['1', '3'\] is not a subalgebra$"):
        separation_promotes(chain, {"1", "2"}, {"1", "3"}, Fraction(1, 2))  # 3*3 holds 2


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
