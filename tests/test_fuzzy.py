"""Membership validation, level sets, restrictions, and the cut verdicts."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracle as naive
from conftest import GRID, cut_masks, cuts_at_levels_and_ends, grid_assignments, zero_moved_to
from hyperbck import (
    Carrier,
    FuzzyHyperBCK,
    HyperBCK,
    InputError,
    check_collapse_properties,
    equals_some_alpha_cut,
    format_fuzzy,
    fuzzy_value,
    trivial_algebra,
    validate_fuzzy,
)
from hyperbck.core import iter_bits
from hyperbck.corpus import chain_example
from hyperbck.fuzzy import fuzzy_condition_holds


@pytest.fixture(scope="module")
def c3():
    return chain_example(3)


def test_fuzzy_value_parsing_and_range():
    assert fuzzy_value("2/3") == Fraction(2, 3)
    assert fuzzy_value("1") == 1
    assert fuzzy_value(1, 4) == Fraction(1, 4)
    with pytest.raises(InputError, match="outside"):
        fuzzy_value("5/3")
    with pytest.raises(InputError, match="outside"):
        fuzzy_value(-1)
    with pytest.raises(InputError, match="bad membership value"):
        fuzzy_value("one half")
    assert format_fuzzy(Fraction(1, 2)) == "1/2"
    assert format_fuzzy(Fraction(0)) == "0"
    assert format_fuzzy(Fraction(1)) == "1"


def test_list_membership_is_stored_as_a_tuple(c3):
    listed = FuzzyHyperBCK(c3.alg, list(c3.mu))
    assert listed.mu == c3.mu
    assert listed == c3 and hash(listed) == hash(c3)


def test_from_map_totality(c3):
    with pytest.raises(InputError, match="missing"):
        FuzzyHyperBCK.from_map(c3.alg, {"1": 1})
    with pytest.raises(InputError, match="unknown"):
        FuzzyHyperBCK.from_map(c3.alg, {"1": 1, "2": 1, "3": 1, "4": 1})


def test_validate_fuzzy_examples(c3):
    zero_trivial = FuzzyHyperBCK.from_map(trivial_algebra(), {"O": 0})
    assert validate_fuzzy(zero_trivial).passed

    assert validate_fuzzy(c3).passed  # mu(x) = 1/x

    bad = FuzzyHyperBCK.from_map(c3.alg, {"1": 0, "2": 1, "3": 0})
    report = validate_fuzzy(bad)
    assert not report.passed
    assert report.witnesses("MU") == [("2", "2")]


def test_membership_report_text_and_order_are_pinned(c3):
    fz = FuzzyHyperBCK.from_map(c3.alg, {"1": "1/4", "2": 1, "3": "1/2"})
    got = [(v.axiom, v.witness, v.detail) for v in validate_fuzzy(fz).violations]
    assert got == [
        ("MU", ("2", "2"), "min mu over x*y is 1/4 < 1"),
        ("MU", ("2", "3"), "min mu over x*y is 1/4 < 1/2"),
        ("MU", ("3", "3"), "min mu over x*y is 1/4 < 1/2"),
    ]


def _grid_maps(n, cap, seed):
    """Every map of n elements into GRID, or a seeded sample of ``cap`` of them."""
    if len(GRID) ** n <= cap:
        return list(product(GRID, repeat=n))
    rng = random.Random(seed)
    return [tuple(rng.choice(GRID) for _ in range(n)) for _ in range(cap)]


def test_fail_fast_and_report_agree_with_oracle(corpus_le2, chains):
    algebras = list(corpus_le2) + [chains[k].alg for k in range(1, 6)]
    for seed, alg in enumerate(algebras):
        labels, _, table = naive.table_of(alg)
        for mu in _grid_maps(alg.size, 400, seed):
            expected = naive.fuzzy_ok(labels, table, dict(zip(labels, mu)))
            assert fuzzy_condition_holds(alg, mu) == expected
            ranks = tuple(sorted(set(mu)).index(v) for v in mu)
            assert fuzzy_condition_holds(alg, ranks) == expected
            assert validate_fuzzy(FuzzyHyperBCK(alg, mu)).passed == expected


def _literal_report(alg, mu):
    labels, zero, table = naive.table_of(alg)
    violations, checks = naive.fuzzy_report(labels, zero, table, dict(zip(labels, mu)))
    return (
        [("MU", xy, f"min mu over x*y is {got} < {bound}") for xy, got, bound in violations],
        checks,
        f"mu at zero is {mu[alg.zero]}",
    )


def _report_of(fz):
    report = validate_fuzzy(fz)
    assert report.info[0].check == "zero-max"
    return (
        [(v.axiom, v.witness, v.detail) for v in report.violations],
        [(c.check, c.holds) for c in report.info],
        report.info[0].detail,
    )


def test_membership_reports_match_the_literal_report(corpus_le2, corpus3, chains):
    # violating maps with repeated values included; both the ranks a structure
    # finds itself and the ranks handed over by a builder give the same bytes
    algebras = list(corpus_le2) + random.Random(5).sample(list(corpus3), 40)
    algebras += [chains[k].alg for k in range(1, 6)]
    violating = repeated = 0
    for seed, alg in enumerate(algebras):
        for mu in _grid_maps(alg.size, 200, seed):
            expected = _literal_report(alg, mu)
            assert _report_of(FuzzyHyperBCK(alg, mu)) == expected
            grid_ranks = tuple(GRID.index(v) for v in mu)
            assert _report_of(FuzzyHyperBCK._trusted(alg, mu, grid_ranks)) == expected
            violating += bool(expected[0])
            repeated += len(set(mu)) < len(mu)
    assert violating > 1000 and repeated > 1000


def test_a_rank_built_structure_is_the_plain_one(c3):
    mu = (Fraction(1), Fraction(1, 4), Fraction(1, 4))
    plain = FuzzyHyperBCK(c3.alg, mu)
    ranked = FuzzyHyperBCK._trusted(c3.alg, mu, (6, 1, 1))
    assert ranked == plain and hash(ranked) == hash(plain) and repr(ranked) == repr(plain)
    assert plain._ranks() == (1, 0, 0) and ranked._ranks() == (6, 1, 1)
    assert "_rank" not in repr(plain)
    assert ranked.cut_levels() == plain.cut_levels() == (Fraction(1, 4), Fraction(1))
    assert check_collapse_properties(ranked) == check_collapse_properties(plain)


def test_restriction_carries_the_parent_ranks(corpus2, c3):
    sub = c3.restrict({"1", "2"})
    assert sub._rank_cache == c3._ranks()[:2]
    for alg in corpus2:
        for fz in grid_assignments(alg):
            for mask in range(1, alg.carrier.full_mask + 1):
                if alg.is_subalgebra_mask(mask):
                    sub = fz.restrict_mask(mask)
                    assert sub._rank_cache == tuple(fz._ranks()[i] for i in iter_bits(mask))
                    assert sub == FuzzyHyperBCK(sub.alg, sub.mu)


def _library_cuts(fz):
    """``(alpha, alpha_cut_mask(alpha))`` for alpha in the degrees plus {0, 1}, increasing."""
    return [(a, fz.alpha_cut_mask(a)) for a in sorted(set(fz.mu) | {0, 1})]


def test_cut_masks_are_the_cuts_at_the_levels(corpus_le2, corpus_le3, chains):
    for seed, alg in enumerate(list(corpus_le2) + [chains[k].alg for k in range(1, 6)]):
        for mu in _grid_maps(alg.size, 100, seed):
            fz = FuzzyHyperBCK(alg, mu)
            assert cut_masks(fz) == tuple(fz.alpha_cut_mask(a) for a in fz.cut_levels())
            assert fz.cut_levels() == tuple(sorted(set(mu)))
            assert cuts_at_levels_and_ends(fz) == _library_cuts(fz)
    # the structures the level-set criteria (c03, its companion, c10) read their cuts from;
    # a cut reads mu alone, so the library's cuts are taken once per distinct map
    library_cuts = {}
    for alg in corpus_le3:
        for fz in grid_assignments(alg):
            if fz.mu not in library_cuts:
                library_cuts[fz.mu] = _library_cuts(fz)
            assert cuts_at_levels_and_ends(fz) == library_cuts[fz.mu]


def test_validate_fuzzy_reports_zero_max_info(c3):
    report = validate_fuzzy(c3)
    assert any(c.check == "zero-max" and c.holds for c in report.info)


def test_alpha_cut_examples(c3):
    assert c3.alpha_cut(0) == {"1", "2", "3"}
    assert c3.alpha_cut("1/2") == {"1", "2"}
    assert c3.alpha_cut(1) == {"1"}


def test_alpha_cut_is_empty_above_the_top_value():
    zero_trivial = FuzzyHyperBCK.from_map(trivial_algebra(), {"O": 0})
    assert zero_trivial.alpha_cut(1) == frozenset()
    assert zero_trivial.alpha_cut("1/4") == frozenset()
    assert zero_trivial.alpha_cut(0) == {"O"}


def test_cut_levels_examples(c3):
    assert c3.cut_levels() == (Fraction(1, 3), Fraction(1, 2), Fraction(1))
    const = FuzzyHyperBCK.from_map(c3.alg, {"1": "1/2", "2": "1/2", "3": "1/2"})
    assert const.cut_levels() == (Fraction(1, 2),)
    zero_trivial = FuzzyHyperBCK.from_map(trivial_algebra(), {"O": 0})
    assert zero_trivial.cut_levels() == (Fraction(0),)


def test_cut_nesting_and_piecewise_constancy(c3):
    levels = (Fraction(0),) + c3.cut_levels() + (Fraction(1),)
    for lo, hi in zip(levels, levels[1:]):
        assert c3.alpha_cut_mask(hi) & ~c3.alpha_cut_mask(lo) == 0
        mid = (lo + hi) / 2
        if mid > lo:  # cuts are constant on (level, next level]
            assert c3.alpha_cut_mask(mid) == c3.alpha_cut_mask(hi)


def test_restrict_examples(c3):
    assert c3.restrict({"1", "2", "3"}) == c3
    sub = c3.restrict({"1", "2"})
    assert sub.alg.carrier.labels == ("1", "2")
    assert sub.mu == (Fraction(1), Fraction(1, 2))
    assert validate_fuzzy(sub).passed
    single = c3.restrict({"1"})
    assert single.alg.size == 1 and single.mu == (Fraction(1),)
    with pytest.raises(InputError, match="not a subalgebra"):
        c3.restrict({"2", "3"})


def test_restriction_inherits_validity(corpus2):
    for alg in corpus2:
        for fz in grid_assignments(alg)[:6]:
            for mask in range(1, alg.carrier.full_mask + 1):
                if alg.is_subalgebra_mask(mask):
                    assert validate_fuzzy(fz.restrict_mask(mask)).passed


def test_equals_some_alpha_cut_examples(c3):
    full = equals_some_alpha_cut(c3, {"1", "2", "3"})
    assert full.is_cut and full.alpha == Fraction(1, 3) and full.claim_holds

    sub = equals_some_alpha_cut(c3, {"1", "2"})
    assert sub.is_cut and sub.alpha == Fraction(1, 2)

    const = FuzzyHyperBCK.from_map(c3.alg, {"1": "1/2", "2": "1/2", "3": "1/2"})
    verdict = equals_some_alpha_cut(const, {"1", "2"})
    assert not verdict.is_cut and verdict.alpha is None and not verdict.claim_holds

    with pytest.raises(InputError, match="not a subalgebra"):
        equals_some_alpha_cut(c3, {"2", "3"})


def _assert_cut_verdicts_match_oracle(alg, maps):
    labels, zero, table = naive.table_of(alg)
    subalgebras = [
        frozenset(labels[i] for i in range(alg.size) if mask >> i & 1)
        for mask in range(1, 1 << alg.size)
    ]
    subalgebras = [s for s in subalgebras if naive.is_subalgebra(table, zero, s)]
    violating = 0
    for mu in maps:
        mu_map = dict(zip(labels, mu))
        violating += not naive.fuzzy_ok(labels, table, mu_map)
        fz = FuzzyHyperBCK(alg, mu)
        for subset in subalgebras:
            level = naive.cut_level(mu_map, subset)
            verdict = equals_some_alpha_cut(fz, subset)
            assert verdict.is_cut == verdict.claim_holds == (level is not None)
            assert verdict.alpha == level
    return violating


def test_equals_some_alpha_cut_matches_literal_level_scan(corpus_le2, corpus3):
    violating = 0
    for alg in corpus_le2:
        violating += _assert_cut_verdicts_match_oracle(alg, list(product(GRID, repeat=alg.size)))
    rng = random.Random(2024)
    for seed, alg in enumerate(rng.sample(list(corpus3), 60)):
        violating += _assert_cut_verdicts_match_oracle(alg, _grid_maps(3, 40, seed))
    assert violating > 0  # maps that break the inequality are scanned too


def test_collapse_properties(c3):
    const = FuzzyHyperBCK.from_map(c3.alg, {"1": "1/2", "2": "1/2", "3": "1/2"})
    verdict = check_collapse_properties(const)
    assert verdict.monotone_applies and verdict.constant_holds

    zero_trivial = FuzzyHyperBCK.from_map(trivial_algebra(), {"O": 0})
    verdict = check_collapse_properties(zero_trivial)
    assert verdict.zero_applies and verdict.vanishes_holds

    verdict = check_collapse_properties(c3)  # 2<3 but mu(2) > mu(3)
    assert not verdict.monotone_applies
    assert verdict.constant_holds is None


def test_collapse_conclusions_hold_on_valid_corpus(corpus2):
    for alg in corpus2:
        for fz in grid_assignments(alg):
            verdict = check_collapse_properties(fz)
            if verdict.monotone_applies:
                assert verdict.constant_holds
            if verdict.zero_applies:
                assert verdict.vanishes_holds


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_zero_max_and_cut_closure_on_random_assignments(data, corpus2):
    alg = data.draw(st.sampled_from(corpus2.models))
    mu = tuple(data.draw(st.sampled_from(GRID)) for _ in range(alg.size))
    fz = FuzzyHyperBCK(alg, mu)
    labels, _, table = naive.table_of(alg)
    mu_map = dict(zip(labels, mu))
    assert validate_fuzzy(fz).passed == naive.fuzzy_ok(labels, table, mu_map)
    if validate_fuzzy(fz).passed:
        assert fz.mu[alg.zero] == max(mu)
        for alpha in fz.cut_levels():
            mask = fz.alpha_cut_mask(alpha)
            assert mask  # levels come from mu values, so cuts there are inhabited
            assert mask >> alg.zero & 1
            assert alg.is_subalgebra_mask(mask)


@pytest.mark.parametrize(
    "args, code",
    [
        ((1, 0), "mu-syntax"),
        ((0.1,), "mu-syntax"),
        (("1/2", 2), "mu-syntax"),
        ((None,), "mu-syntax"),
        (("1/0",), "mu-syntax"),
        ((3, 2), "mu-range"),
        (("-1",), "mu-range"),
    ],
)
def test_fuzzy_value_is_the_one_coded_degree_rule(args, code):
    with pytest.raises(InputError) as exc:
        fuzzy_value(*args)
    assert exc.value.code == code


def test_float_degrees_are_refused_by_every_constructor():
    c2 = chain_example(2)
    with pytest.raises(InputError) as exc:
        FuzzyHyperBCK(c2.alg, (0.5, 0.25))
    assert (exc.value.code, exc.value.location) == ("mu-syntax", "mu['1']")
    with pytest.raises(InputError) as exc:
        FuzzyHyperBCK.from_map(c2.alg, {"1": 0.1, "2": 0})
    assert (exc.value.code, exc.value.location) == ("mu-syntax", "mu['1']")
    with pytest.raises(InputError) as exc:
        FuzzyHyperBCK(c2.alg, (1, Fraction(3, 2)))
    assert (exc.value.code, exc.value.location) == ("mu-range", "mu['2']")


def test_degrees_are_stored_as_fractions_and_fractions_are_kept():
    c2 = chain_example(2)
    from_ints = FuzzyHyperBCK(c2.alg, (1, 0))
    assert all(type(v) is Fraction for v in from_ints.mu)
    assert format_fuzzy(from_ints.mu[1]) == "0"
    half = Fraction(1, 2)
    assert FuzzyHyperBCK(c2.alg, (1, half)).mu[1] is half


def test_reports_read_from_warm_verdicts_match_the_literal_report(corpus_le2, corpus3):
    # Assignments sharing a weak order read the verdict an earlier one cached,
    # so every assignment is checked, not the first per order; zero-moved
    # copies, and each table again under every other zero with the same ranks,
    # must not read another zero's answers.
    algebras = list(corpus_le2) + random.Random(17).sample(list(corpus3), 40)
    algebras += [zero_moved_to(alg, k) for alg in algebras for k in range(1, alg.size)]
    checked = 0
    for alg in algebras:
        at_zero = [HyperBCK(Carrier(alg.carrier.labels, z), alg.table) for z in range(alg.size)]
        for fz in grid_assignments(alg):
            for other in at_zero:
                moved = FuzzyHyperBCK._trusted(other, fz.mu, fz._ranks())
                assert _report_of(moved) == _literal_report(other, fz.mu)
                checked += 1
    assert checked > 7_000


def _structures_with_repeated_and_varied_levels(corpus_le2, corpus3, chains):
    structures = [fz for alg in corpus_le2 for fz in grid_assignments(alg)]
    rng = random.Random(14)
    for alg in rng.sample(list(corpus3), 30):
        structures += rng.sample(grid_assignments(alg), 5)
    return structures + [chains[k] for k in range(1, 7)]


def test_alpha_cut_mask_is_the_literal_level_set(corpus_le2, corpus3, chains):
    ends = {Fraction(0), Fraction(1, 5), Fraction(1), Fraction(-1, 2), Fraction(3, 2)}
    for fz in _structures_with_repeated_and_varied_levels(corpus_le2, corpus3, chains):
        levels = sorted(set(fz.mu))
        between = {(lo + hi) / 2 for lo, hi in zip(levels, levels[1:])}
        for alpha in sorted(set(levels) | between | ends):
            literal = sum(1 << i for i, v in enumerate(fz.mu) if v >= alpha)
            assert fz.alpha_cut_mask(alpha) == literal
            if 0 <= alpha <= 1:
                labels = fz.alg.carrier.labels
                assert fz.alpha_cut(alpha) == {x for x in labels if fz.mu_of(x) >= alpha}


def test_restriction_is_the_whole_structure_or_the_literal_subalgebra(corpus_le2, corpus3, chains):
    for fz in _structures_with_repeated_and_varied_levels(corpus_le2, corpus3, chains):
        labels, zero, table = naive.table_of(fz.alg)
        full = fz.alg.carrier.full_mask
        assert fz.restrict_mask(full) is fz and fz.alg.restrict_mask(full) is fz.alg
        for mask in range(1, full):
            subset = frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1)
            if not naive.is_subalgebra(table, zero, subset):
                continue
            sub = fz.restrict_mask(mask)
            kept, sub_zero, cells = naive.restricted_table(labels, zero, table, subset)
            assert (sub.alg.carrier.labels, sub.alg.carrier.zero_label) == (kept, sub_zero)
            assert naive.table_of(sub.alg)[2] == cells
            assert sub.mu == tuple(fz.mu_of(x) for x in kept)
