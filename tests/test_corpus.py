"""Model enumeration: soundness, completeness, canonical forms, generators."""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

import naive_oracle as naive
from conftest import GRID, grid_assignments, zero_moved_to
from hyperbck import (
    Carrier,
    FuzzyHyperBCK,
    HyperBCK,
    InputError,
    corpus,
    hk_axioms_hold,
    validate_fuzzy,
)
from hyperbck.core import hk_axioms_hold_raw
from hyperbck.corpus import (
    ASSIGNMENT_BOUND,
    MAX_EXHAUSTIVE_SIZE,
    _assignment_table,
    _search_tables,
    _weak_orders,
    canonical_form,
    canonical_table,
    chain_example,
    enumerate_fuzzy_assignments,
    enumerate_hyper_bck,
    relabel_table,
)
from hyperbck.morphisms import Hom, is_fuzzy_hom


def test_frozen_model_counts(corpus1, corpus2, corpus3, corpus3_iso):
    assert len(corpus1) == 1
    assert len(corpus2) == 12
    assert len(corpus3) == 15936
    assert len(corpus3_iso) == 8048


def test_size_bounds_are_refused():
    with pytest.raises(InputError):
        enumerate_hyper_bck(0)
    with pytest.raises(InputError):
        enumerate_hyper_bck(4)


def test_each_size_is_searched_once_per_process():
    before = _search_tables.cache_info().misses
    full = enumerate_hyper_bck(2)
    iso = enumerate_hyper_bck(2, up_to_iso=True)
    iso_positional = enumerate_hyper_bck(2, True)
    assert _search_tables.cache_info().misses - before <= 1
    assert _search_tables.cache_info().maxsize == MAX_EXHAUSTIVE_SIZE
    assert iso_positional.models == iso.models
    assert {alg.table for alg in iso} <= {alg.table for alg in full}


# sha256 of repr(_search_tables(3)), frozen from the depth-first search
# that the search over zero patterns replaced.
SEARCH3_SHA256 = "ab32b7ca6271fe385b58da29149e3a5749b2a6e3710d7ce0e5336e2e1a2c8d82"


def test_size3_search_checks_413488_leaves_and_keeps_15936(monkeypatch):
    """The leaf accounting of a fresh search and up-to-iso filter, past every cache: one
    fail-fast check per leaf and one canonical form per survivor.  A search that skips
    leaves changes these counts and must re-freeze them with the benchmark's."""
    verdicts, kept = [], []

    def counting(n, zero, table):
        verdicts.append(hk_axioms_hold_raw(n, zero, table))
        return verdicts[-1]

    def canonical(n, zero, table):
        best = canonical_table(n, zero, table)
        kept.append(best == table)
        return best

    monkeypatch.setattr(corpus, "hk_axioms_hold_raw", counting)
    monkeypatch.setattr(corpus, "canonical_table", canonical)
    monkeypatch.setattr(corpus, "_search_tables", _search_tables.__wrapped__)
    iso = corpus._corpus.__wrapped__(3, True)
    assert len(verdicts) == 413488
    assert sum(verdicts) == 15936 == len(kept)
    assert sum(kept) == 8048 == len(iso)


def test_size3_search_output_is_frozen():
    assert hashlib.sha256(repr(_search_tables(3)).encode()).hexdigest() == SEARCH3_SHA256


@pytest.mark.parametrize("n", [1, 2])
def test_search_leaves_are_exactly_the_hk3_tables(monkeypatch, n):
    leaves = []
    monkeypatch.setattr(
        corpus, "hk_axioms_hold_raw", lambda size, zero, table: leaves.append(table)
    )
    _search_tables.__wrapped__(n)
    expected = [
        masks
        for masks in product(range(1, 1 << n), repeat=n * n)
        if all(axiom != "HK3" for axiom, _ in naive.hk_failures(*naive.raw_table(n, masks)))
    ]
    assert sorted(leaves) == expected


def test_corpus2_exactly_matches_literal_filter(corpus2):
    expected = set()
    carrier = Carrier(("0", "1"), 0)
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                for d in range(1, 4):
                    masks = (a, b, c, d)
                    labels, zero, table = naive.raw_table(2, masks)
                    if naive.hk_valid(labels, zero, table):
                        expected.add(masks)
    assert {alg.table for alg in corpus2} == expected


def test_corpus3_sampled_completeness_and_soundness(corpus3):
    in_corpus = {alg.table for alg in corpus3}
    rng = random.Random(987654)
    for _ in range(3000):
        masks = tuple(rng.randrange(1, 8) for _ in range(9))
        labels, zero, table = naive.raw_table(3, masks)
        assert naive.hk_valid(labels, zero, table) == (masks in in_corpus)


def test_every_member_validates(corpus_le3):
    for alg in corpus_le3[:: max(1, len(corpus_le3) // 500)]:
        assert hk_axioms_hold(alg)


def test_canonicalizer_idempotent_and_relabeling_invariant(corpus3):
    rng = random.Random(13)
    models = rng.sample(list(corpus3), 200)
    for alg in models:
        n, zero, canon = canonical_form(alg)
        assert canonical_form(HyperBCK(alg.carrier, canon)) == (n, zero, canon)
        for images in permutations([1, 2]):
            perm = [0, *images]
            relabeled = HyperBCK(alg.carrier, relabel_table(3, alg.table, perm))
            assert canonical_form(relabeled) == (n, zero, canon)


def test_relabeling_matches_literal_oracle(corpus3):
    """The whole size-3 corpus, and seeded size-4 tables with zero at every index."""
    rng = random.Random(20261020)
    cases = [(3, 0, alg.table) for alg in corpus3]
    for _ in range(200):
        table = tuple(rng.randrange(1, 16) for _ in range(16))
        cases.extend((4, zero, table) for zero in range(4))
    for n, zero, table in cases:
        assert canonical_table(n, zero, table) == naive.canonical_table(n, zero, table)
        for perm in permutations(range(n)):
            assert relabel_table(n, table, perm) == naive.relabeled(n, table, perm)


def test_canonical_form_refuses_size_nine_quickly():
    n = 9
    alg = HyperBCK(Carrier(tuple(str(i) for i in range(n)), 0), (1,) * (n * n))
    start = time.perf_counter()
    with pytest.raises(InputError, match="limited to sizes up to 8") as refused:
        canonical_form(alg)
    assert (refused.value.code, refused.value.location) == ("too-large", "carrier")
    with pytest.raises(InputError, match="limited to sizes up to 8") as refused:
        canonical_table(n, 3, alg.table)
    assert (refused.value.code, refused.value.location) == ("too-large", "carrier")
    assert time.perf_counter() - start < 1.0
    # a single relabeling builds one plan, so it has no size bound
    assert relabel_table(n, alg.table, list(range(n))) == alg.table


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 5], [0, 1, 2, 3], [1, 2, 3]])
def test_relabel_table_refuses_what_is_no_permutation_of_the_carrier(perm):
    table = enumerate_hyper_bck(3).models[-1].table
    with pytest.raises(InputError, match="is not a permutation of range") as refused:
        relabel_table(3, table, perm)
    assert (refused.value.code, refused.value.location) == ("shape", "perm")


def test_relabeling_past_the_tabled_size_matches_literal_oracle():
    """Past ``_TABLED_SIZE`` the cached plans list every image while a single relabeling's
    image table fills on lookup; size 9 has no cached plans, and a single relabeling runs."""
    rng = random.Random(20261021)
    tables = [(7, 0, chain_example(7).alg.table), (8, 3, chain_example(8).alg.table)]
    tables += [(7, 5, tuple(rng.randrange(1, 1 << 7) for _ in range(49)))]
    for n, zero, table in tables:
        assert canonical_table(n, zero, table) == naive.canonical_table(n, zero, table)
        for _ in range(20):
            perm = rng.sample(range(n), n)
            assert relabel_table(n, table, perm) == naive.relabeled(n, table, perm)
    table = tuple(rng.randrange(1, 1 << 9) for _ in range(81))
    for _ in range(20):
        perm = rng.sample(range(9), 9)
        assert relabel_table(9, table, perm) == naive.relabeled(9, table, perm)


def test_iso_corpus_is_canonical_and_covering(corpus3, corpus3_iso):
    iso_tables = {alg.table for alg in corpus3_iso}
    for alg in corpus3_iso:
        assert canonical_form(alg)[2] == alg.table
    for alg in list(corpus3)[::7]:
        assert canonical_form(alg)[2] in iso_tables


# --- the worked chain ---------------------------------------------------------


def test_chain_structure():
    c1 = chain_example(1)
    assert c1.alg.size == 1 and c1.mu == (Fraction(1),)

    c4 = chain_example(4)
    assert c4.alg.star("3", "2") == {"2"}
    assert c4.alg.star("2", "4") == {"1", "2"}
    assert c4.alg.star("4", "1") == {"4"}
    assert c4.mu_of("4") == Fraction(1, 4)

    with pytest.raises(InputError):
        chain_example(0)


def test_chain_membership_inequality_holds_but_axioms_break_at_three():
    for k in range(1, 7):
        chain = chain_example(k)
        assert validate_fuzzy(chain).passed
        assert hk_axioms_hold(chain.alg) == (k <= 2)


def test_chain_embeds_in_next_chain_as_fuzzy_hom():
    for k in range(1, 6):
        small, big = chain_example(k), chain_example(k + 1)
        include = Hom.from_labels(
            small.alg, big.alg, {lab: lab for lab in small.alg.carrier.labels}
        )
        assert is_fuzzy_hom(include, small, big)


# --- fuzzy assignment enumeration ----------------------------------------------


def test_fuzzy_assignments_on_trivial():
    t = enumerate_hyper_bck(1).models[0]
    got = enumerate_fuzzy_assignments(t, [0, 1])
    assert [fz.mu for fz in got] == [(Fraction(0),), (Fraction(1),)]


def test_fuzzy_assignments_match_literal_filter(corpus2):
    grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
    for alg in corpus2:
        labels, _, table = naive.table_of(alg)
        got = {fz.mu for fz in enumerate_fuzzy_assignments(alg, grid)}
        expected = set()
        for m0 in grid:
            for m1 in grid:
                mu = {labels[0]: m0, labels[1]: m1}
                if naive.fuzzy_ok(labels, table, mu):
                    expected.add((m0, m1))
        assert got == expected


def test_fuzzy_assignments_keep_order_and_duplicates_of_an_unsorted_grid(corpus3):
    grid = [1, 0, "1/2", 1]
    values = [Fraction(v) for v in grid]
    for alg in random.Random(31).sample(list(corpus3), 150):
        labels, _, table = naive.table_of(alg)
        got = [fz.mu for fz in enumerate_fuzzy_assignments(alg, grid)]
        expected = [
            mu
            for mu in product(values, repeat=alg.size)
            if naive.fuzzy_ok(labels, table, dict(zip(labels, mu)))
        ]
        assert got == expected


def _literal_assignments(alg, grid):
    """Every map of the carrier into ``grid`` that the literal inequality accepts, in grid order."""
    values = [Fraction(v) for v in grid]
    labels, _, table = naive.table_of(alg)
    return [
        mu
        for mu in product(values, repeat=alg.size)
        if naive.fuzzy_ok(labels, table, dict(zip(labels, mu)))
    ]


def _assert_assignments_match_literal_filter(alg, grid):
    got = enumerate_fuzzy_assignments(alg, grid)
    assert [fz.mu for fz in got] == _literal_assignments(alg, grid)
    for fz in got:  # each carries ranks of its own degrees
        assert fz == FuzzyHyperBCK(alg, fz.mu) and fz._ranks() == FuzzyHyperBCK(alg, fz.mu)._ranks()


def test_fuzzy_assignments_match_literal_filter_on_the_corpus(corpus_le2, corpus3):
    # every model of size <= 2 and a systematic sample of size 3, list for list
    for alg in corpus_le2:
        _assert_assignments_match_literal_filter(alg, GRID)
    for alg in corpus3.models[::79]:
        _assert_assignments_match_literal_filter(alg, GRID)


def test_grid_assignment_total_over_the_corpus_is_frozen(corpus_le3):
    assert sum(len(grid_assignments(alg)) for alg in corpus_le3) == 338695


@pytest.mark.parametrize(
    "grid",
    [
        ["1/2"],  # one value: every map is constant
        [1, "1/3", 0, "1/3", 1],  # unsorted, with duplicates
        [Fraction(2, 3), 0],
    ],
)
def test_fuzzy_assignments_match_literal_filter_on_other_grids(corpus_le2, corpus3, grid):
    for alg in list(corpus_le2) + list(corpus3.models[::397]):
        _assert_assignments_match_literal_filter(alg, grid)


def test_fuzzy_assignments_on_four_element_products_with_zero_moved(corpus2):
    from hyperbck.category import product as fuzzy_product

    rng = random.Random(4242)
    for _ in range(12):
        a, b = rng.choice(corpus2.models), rng.choice(corpus2.models)
        zero = tuple(FuzzyHyperBCK(f, (Fraction(0),) * 2) for f in (a, b))
        alg = fuzzy_product(zero).object.alg
        for k in range(alg.size):
            moved = zero_moved_to(alg, k)
            _assert_assignments_match_literal_filter(moved, [0, "1/2", 1, "1/2"])


def test_fuzzy_assignments_with_more_elements_than_levels():
    chain7 = chain_example(7).alg
    got = enumerate_fuzzy_assignments(chain7, ["1/3", 1])
    assert [fz.mu for fz in got] == _literal_assignments(chain7, ["1/3", 1])
    assert len(got) > 1


def test_assignments_past_the_bound_are_refused_at_once():
    # 2^64 maps of the 64-chain into {0, 1}: the orders alone were min(n, k)^n candidates.
    chain, start = chain_example(64).alg, time.perf_counter()
    with pytest.raises(InputError, match="2\\^64 maps") as refused:
        enumerate_fuzzy_assignments(chain, [0, 1])
    assert time.perf_counter() - start < 0.1
    assert (refused.value.code, refused.value.location) == ("too-large", "carrier")
    # at the bound the table is built and kept alone; one value more is refused
    trivial = enumerate_hyper_bck(1).models[0]
    grid = [Fraction(i, ASSIGNMENT_BOUND) for i in range(ASSIGNMENT_BOUND)]
    assert [fz.mu for fz in enumerate_fuzzy_assignments(trivial, grid)] == [(v,) for v in grid]
    assert _assignment_table.held == ASSIGNMENT_BOUND == _assignment_table.limit
    with pytest.raises(InputError, match=f"{ASSIGNMENT_BOUND + 1}\\^1 maps"):
        enumerate_fuzzy_assignments(trivial, [*grid, 1])
    _assignment_table.clear()


def test_weak_order_counts_are_the_fubini_numbers():
    # ordered set partitions of n elements: 1, 3, 13, 75, 541
    for n, fubini in zip(range(1, 6), (1, 3, 13, 75, 541)):
        for levels in (n, n + 2):
            orders = list(_weak_orders(n, levels))
            assert len(orders) == len(set(orders)) == fubini
        # at most two levels: constant, or a proper non-empty upper set
        assert len(list(_weak_orders(n, 2))) == 2**n - 1
        assert list(_weak_orders(n, 1)) == [(0,) * n]


def test_fuzzy_assignments_satisfy_zero_maximality(corpus2):
    for alg in corpus2:
        for fz in enumerate_fuzzy_assignments(alg, [0, Fraction(1, 3), 1]):
            assert fz.mu[alg.zero] == max(fz.mu)


def test_fuzzy_assignments_empty_grid_refused(corpus1):
    with pytest.raises(InputError):
        enumerate_fuzzy_assignments(corpus1.models[0], [])


def test_every_spelling_of_the_arguments_returns_one_corpus():
    iso = [
        enumerate_hyper_bck(2, True),
        enumerate_hyper_bck(2, up_to_iso=True),
        enumerate_hyper_bck(n=2, up_to_iso=True),
        enumerate_hyper_bck(2, 1),
    ]
    full = [
        enumerate_hyper_bck(2),
        enumerate_hyper_bck(2, False),
        enumerate_hyper_bck(2, up_to_iso=False),
        enumerate_hyper_bck(n=2),
        enumerate_hyper_bck(2, 0),
    ]
    assert all(c is iso[0] for c in iso) and all(c is full[0] for c in full)
    assert iso[0].up_to_iso is True and full[0].up_to_iso is False
