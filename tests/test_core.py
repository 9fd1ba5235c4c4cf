"""Carrier/table structure, hyperoperation semantics, and the axiom validator."""

from __future__ import annotations

import importlib
import os
import pkgutil
import random
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracle as naive
from conftest import zero_moved_to
from hyperbck import (
    Carrier,
    FuzzyHyperBCK,
    HyperBCK,
    InputError,
    ValidationReport,
    Violation,
    hk_axioms_hold,
    product,
    trivial_algebra,
    validate_hyper_bck,
)
from hyperbck import corpus
from hyperbck.core import (
    AXIOM_CHECK_BOUND,
    HK2_PLAN_BOUND,
    RESTRICTIONS_KEPT,
    _TABLED_SIZE,
    _hk2_mismatch,
    _hk2_plan,
    _mask_ors,
    _tabled_ors,
    hk_axioms_hold_raw,
    iter_bits,
)
from hyperbck.corpus import _search_tables, chain_example
from hyperbck.morphisms import enumerate_homs

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(SRC / "hyperbck")]))


@pytest.fixture(scope="module")
def c3():
    return chain_example(3).alg


@pytest.fixture(scope="module")
def search_leaves():
    """Every table the size-3 search hands to the fail-fast check, in search order."""
    leaves = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "hk_axioms_hold_raw", lambda n, zero, t: leaves.append(t))
        _search_tables.__wrapped__(3)
    return leaves


# --- structural validation -------------------------------------------------


def test_carrier_invariants():
    with pytest.raises(InputError):
        Carrier((), 0)
    with pytest.raises(InputError):
        Carrier(("a", "a"), 0)
    with pytest.raises(InputError):
        Carrier(("a", "b"), 2)


def test_table_must_be_total_with_nonempty_cells():
    carrier = Carrier(("O", "a"), 0)
    with pytest.raises(InputError, match="cells"):
        HyperBCK(carrier, (1, 1, 1))
    with pytest.raises(InputError, match="empty hyperoperation cell"):
        HyperBCK(carrier, (1, 0, 1, 1))
    with pytest.raises(InputError, match="out of range"):
        HyperBCK(carrier, (1, 1, 1, 4))


def test_sequence_fields_are_stored_as_tuples():
    alg = HyperBCK(Carrier(["O", "a"], 0), [1, 1, 2, 1])
    want = HyperBCK(Carrier(("O", "a"), 0), (1, 1, 2, 1))
    assert (alg.carrier.labels, alg.table) == (("O", "a"), (1, 1, 2, 1))
    assert alg == want and hash(alg) == hash(want)
    assert enumerate_homs(alg, alg) == enumerate_homs(want, want)
    before = _tabled_ors.cache_info()
    assert hk_axioms_hold(alg) and validate_hyper_bck(alg).passed  # reads the cached row tables
    after = _tabled_ors.cache_info()
    assert after.hits + after.misses > before.hits + before.misses


def test_unknown_labels_are_input_errors(c3):
    with pytest.raises(InputError, match="unknown element label"):
        c3.star("1", "9")
    with pytest.raises(InputError):
        c3.hyper_order("x", "1")


def test_empty_subsets_are_input_errors(c3):
    with pytest.raises(InputError):
        c3.set_star(set(), {"1"})
    with pytest.raises(InputError):
        c3.set_order({"1"}, set())
    with pytest.raises(InputError):
        c3.is_subalgebra(set())


# --- hyperoperation semantics on the worked chain ---------------------------


def test_trivial_star():
    t = trivial_algebra()
    assert t.star("O", "O") == {"O"}


def test_chain_star_cases(c3):
    assert c3.star("2", "3") == {"1", "2"}
    assert c3.star("1", "1") == {"1"}
    assert c3.star("3", "2") == {"2"}
    assert c3.star("3", "1") == {"3"}


def test_set_star_cases(c3):
    assert c3.set_star({"2"}, {"3"}) == c3.star("2", "3")
    assert c3.set_star({"2", "3"}, {"1"}) == {"2", "3"}
    # brute-force union oracle
    expected = set()
    for a in ("1", "2", "3"):
        expected |= c3.star(a, "3")
    assert c3.set_star({"1", "2", "3"}, {"3"}) == expected


def test_hyper_order_cases(c3):
    assert c3.hyper_order("2", "3")
    assert not c3.hyper_order("3", "1")
    assert c3.set_order({"1", "2"}, {"3"})
    assert not c3.set_order({"3"}, {"1"})
    assert c3.set_order({"2"}, {"2"})


def test_iter_bits_is_pinned_and_bounded():
    for mask in [*range(1 << 12), 1 << 40 | 9, (1 << 64) - 1, 1 << 100]:
        assert iter_bits(mask) == tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    assert iter_bits.cache_info().maxsize is not None


def test_every_cache_in_the_package_is_bounded():
    import hyperbck

    cached = {}
    for info in pkgutil.iter_modules(hyperbck.__path__):
        module = importlib.import_module(f"hyperbck.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                cached[f"{info.name}.{name}"] = obj.cache_info().maxsize
    assert {
        "category._crisp_product",
        "category.enumerate_regular_congruences",
        "cli.build_parser",
        "core.iter_bits",
        "core._hk2_plan",
        "core._spread",
        "core._tabled_ors",
        "corpus._corpus",
        "corpus._relabel_plans",
        "corpus._search_tables",
        "fuzzy._cut_masks",
        "fuzzy._membership_pairs",
        "fuzzy._membership_verdict",
        "morphisms.enumerate_homs",
        "morphisms._probe_hom_maps",
        "morphisms._probes_by_image",
    } <= set(cached)
    assert {name: size for name, size in cached.items() if size is None} == {}


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # The package's __init__ is replaced by a bare package, so ``module`` is
    # the first of the library to load and an import cycle through it fails.
    code = (
        "import importlib, importlib.util, sys, types; "
        "pkg = types.ModuleType('hyperbck'); "
        "pkg.__path__ = importlib.util.find_spec('hyperbck').submodule_search_locations; "
        "sys.modules['hyperbck'] = pkg; "
        f"importlib.import_module('hyperbck.{module}')"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_no_export_is_a_module():
    import hyperbck

    assert "validate_hyper_bck" in hyperbck.__all__
    modules = [
        name for name in hyperbck.__all__ if isinstance(getattr(hyperbck, name), types.ModuleType)
    ]
    assert modules == []


def test_is_subalgebra_cases(c3):
    assert c3.is_subalgebra({"1", "2", "3"})
    assert c3.is_subalgebra({"1", "2"})
    assert not c3.is_subalgebra({"2", "3"})


# --- the validator -----------------------------------------------------------


def test_trivial_algebra_validates():
    report = validate_hyper_bck(trivial_algebra())
    assert report.passed and not report.violations


def test_report_invariant():
    with pytest.raises(InputError):
        ValidationReport(True, (Violation("HK1", ("x",)),))


def test_chain3_fails_hk1_with_frozen_witness(c3):
    # The worked example's validity claim breaks at this triple: (3*3)*(2*3)
    # contains 3, which is not below anything in 3*2 = {2}.
    report = validate_hyper_bck(c3)
    assert not report.passed
    assert set(report.witnesses("HK1")) == {("3", "2", "3")}
    assert not report.witnesses("HK2")
    assert not report.witnesses("HK3")


def test_mutated_chain_gets_hk3_witness(c3):
    table = list(c3.table)
    table[1 * 3 + 1] = 1 << 2  # overwrite 2*2 with {3}
    report = validate_hyper_bck(HyperBCK(c3.carrier, tuple(table)))
    assert not report.passed
    assert ("2",) in report.witnesses("HK3")


def test_strict_antisymmetry_flag():
    alg = HyperBCK.from_sets(
        ["O", "a"],
        "O",
        {
            ("O", "O"): ["O", "a"],
            ("O", "a"): ["O"],
            ("a", "O"): ["O", "a"],
            ("a", "a"): ["O", "a"],
        },
    )
    assert validate_hyper_bck(alg).passed
    strict = validate_hyper_bck(alg, strict_antisymmetry=True)
    assert not strict.passed
    assert strict.witnesses("HK4") == [("O", "a")]


# Full reports, detail text and order included, frozen from the reporting
# validator: HK2 precedes HK1 on a triple, triples run x, y, z in carrier
# order, then HK3 per element, then HK4 per pair when asked for.
CHAIN3_REPORT = [
    ("HK1", ("3", "2", "3"), "(x*z)*(y*z) = ['1', '2', '3'] is not below x*y = ['2']"),
]
MUTATED_CHAIN3_REPORT = [
    ("HK1", ("2", "1", "1"), "(x*z)*(y*z) = ['2'] is not below x*y = ['2']"),
    ("HK1", ("2", "1", "2"), "(x*z)*(y*z) = ['3'] is not below x*y = ['2']"),
    ("HK1", ("2", "1", "3"), "(x*z)*(y*z) = ['1', '2'] is not below x*y = ['2']"),
    ("HK2", ("2", "2", "3"), "(x*y)*z = ['1', '2', '3'] but (x*z)*y = ['1', '3']"),
    ("HK1", ("2", "3", "1"), "(x*z)*(y*z) = ['1', '2'] is not below x*y = ['1', '2']"),
    ("HK2", ("2", "3", "2"), "(x*y)*z = ['1', '3'] but (x*z)*y = ['1', '2', '3']"),
    ("HK1", ("2", "3", "2"), "(x*z)*(y*z) = ['2'] is not below x*y = ['1', '2']"),
    ("HK1", ("2", "3", "3"), "(x*z)*(y*z) = ['1', '2', '3'] is not below x*y = ['1', '2']"),
    ("HK1", ("3", "2", "1"), "(x*z)*(y*z) = ['2'] is not below x*y = ['2']"),
    ("HK1", ("3", "2", "2"), "(x*z)*(y*z) = ['1', '2'] is not below x*y = ['2']"),
    ("HK2", ("3", "2", "3"), "(x*y)*z = ['1', '2'] but (x*z)*y = ['1', '2', '3']"),
    ("HK1", ("3", "2", "3"), "(x*z)*(y*z) = ['1', '2', '3'] is not below x*y = ['2']"),
    ("HK2", ("3", "3", "2"), "(x*y)*z = ['1', '2', '3'] but (x*z)*y = ['1', '2']"),
    ("HK3", ("2",), "2 in x*H but not below x"),
]
SWAPPED_CELLS_REPORT = [
    ("HK2", ("b", "O", "a"), "(x*y)*z = ['O'] but (x*z)*y = ['a']"),
    ("HK2", ("b", "a", "O"), "(x*y)*z = ['a'] but (x*z)*y = ['O']"),
]


def _pinned_report_cases():
    c3 = chain_example(3).alg
    mutated = list(c3.table)
    mutated[1 * 3 + 1] = 1 << 2  # 2*2 = {3}
    swapped = HyperBCK(Carrier(("O", "a", "b"), 0), (1, 1, 1, 1, 1, 1, 2, 4, 1))
    return [
        (c3, CHAIN3_REPORT, []),
        (HyperBCK(c3.carrier, tuple(mutated)), MUTATED_CHAIN3_REPORT, []),
        (swapped, SWAPPED_CELLS_REPORT, [("HK4", ("O", "a"), "x<y and y<x with x != y")]),
    ]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("case", range(3))
def test_report_text_and_order_are_pinned(case, strict):
    alg, expected, strict_tail = _pinned_report_cases()[case]
    report = validate_hyper_bck(alg, strict_antisymmetry=strict)
    got = [(v.axiom, v.witness, v.detail) for v in report.violations]
    assert got == expected + (strict_tail if strict else [])
    assert not report.passed


def test_fail_fast_matches_report(corpus2, c3):
    for alg in corpus2:
        assert hk_axioms_hold(alg) == validate_hyper_bck(alg).passed
    assert hk_axioms_hold(c3) == validate_hyper_bck(c3).passed


def _report_oracle_cases(corpus3):
    """The size-1 table, every size-2 table, seeded size-3 to size-5 and size-7
    tables, size-3 models with one cell changed, and the chains of length 7 and 8."""
    rng = random.Random(20261018)
    cases = [(1, (1,))] + [(2, alg.table) for alg in all_size2_tables()]
    for n, count in ((3, 300), (4, 100)):
        for _ in range(count):
            cases.append((n, tuple(rng.randrange(1, 1 << n) for _ in range(n * n))))
    for alg in rng.sample(list(corpus3), 200):
        table = list(alg.table)
        table[rng.randrange(9)] = rng.randrange(1, 8)
        cases.append((3, tuple(table)))
    five = random.Random(20261019)
    for _ in range(30):
        cases.append((5, tuple(five.randrange(1, 32) for _ in range(25))))
    # Past six elements the kernel's mask tables fill entries on lookup.
    for _ in range(4):
        cases.append((7, tuple(five.randrange(1, 128) for _ in range(49))))
    return cases + [(k, chain_example(k).alg.table) for k in (7, 8)]


_SIDES_DETAIL = {
    "HK1": "(x*z)*(y*z) = {} is not below x*y = {}",
    "HK2": "(x*y)*z = {} but (x*z)*y = {}",
}


def _assert_report_matches_oracle(alg, report, strict):
    """Every witness, in order, and every HK1/HK2 side as the literal oracle spells it."""
    oracle = naive.table_of(alg)
    assert [(v.axiom, v.witness) for v in report.violations] == naive.hk_failures(*oracle, strict)
    for v in report.violations:
        if v.axiom in _SIDES_DETAIL:
            lhs, rhs = naive.hk_sides(oracle[2], v.axiom, v.witness)
            assert v.detail == _SIDES_DETAIL[v.axiom].format(sorted(lhs), sorted(rhs))


@pytest.mark.parametrize("strict", [False, True])
def test_full_report_matches_literal_oracle(corpus3, strict):
    for n, masks in _report_oracle_cases(corpus3):
        labels = tuple(str(i) for i in range(n))
        for zero in range(n):
            alg = HyperBCK(Carrier(labels, zero), masks)
            report = validate_hyper_bck(alg, strict_antisymmetry=strict)
            _assert_report_matches_oracle(alg, report, strict)
            assert hk_axioms_hold(alg, strict_antisymmetry=strict) == report.passed


def test_a_nine_element_product_with_zero_moved_matches_literal_oracle(corpus3):
    """Past ``_TABLED_SIZE``: the 3-chain, which breaks HK1, times a size-3 model."""
    factor = FuzzyHyperBCK(corpus3.models[5000], (0, 0, 0))
    alg = product([chain_example(3), factor]).object.alg
    assert alg.size == 9 > _TABLED_SIZE
    for k in (0, 4, 8):
        moved = zero_moved_to(alg, k)
        for strict in (False, True):
            report = validate_hyper_bck(moved, strict_antisymmetry=strict)
            assert any(v.axiom == "HK1" for v in report.violations)
            _assert_report_matches_oracle(moved, report, strict)
            assert hk_axioms_hold(moved, strict_antisymmetry=strict) == report.passed


def test_axiom_checks_refuse_carriers_past_the_bound():
    n = AXIOM_CHECK_BOUND + 1
    alg = HyperBCK(Carrier(tuple(map(str, range(n))), 0), (1,) * (n * n))
    for check in (validate_hyper_bck, hk_axioms_hold):
        start = time.perf_counter()
        with pytest.raises(InputError, match="at most 64 elements, not 65") as refused:
            check(alg)
        assert time.perf_counter() - start < 1.0
        assert (refused.value.code, refused.value.location) == ("too-large", "carrier")


# --- oracle agreement and derived invariants ---------------------------------


def all_size2_tables():
    carrier = Carrier(("0", "1"), 0)
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                for d in range(1, 4):
                    yield HyperBCK(carrier, (a, b, c, d))


def test_validator_agrees_with_literal_oracle_size2():
    for alg in all_size2_tables():
        labels, zero, table = naive.table_of(alg)
        assert validate_hyper_bck(alg).passed == naive.hk_valid(labels, zero, table)


def test_validator_agrees_with_literal_oracle_sampled_size3():
    rng = random.Random(20251122)
    carriers = [Carrier(("0", "1", "2"), zero) for zero in range(3)]
    for _ in range(2000):
        masks = tuple(rng.randrange(1, 8) for _ in range(9))
        for carrier in carriers:
            alg = HyperBCK(carrier, masks)
            labels, zero, table = naive.table_of(alg)
            assert hk_axioms_hold(alg) == naive.hk_valid(labels, zero, table)


def test_fail_fast_agrees_with_literal_oracle_on_sampled_size3_leaves(search_leaves):
    """The search leaves satisfy HK3, so many get past HK2 into HK1 and HK3."""
    assert len(search_leaves) == 413488
    carrier = Carrier(("0", "1", "2"), 0)
    valid = 0
    for i, masks in enumerate(random.Random(20261018).sample(search_leaves, 20000)):
        alg = HyperBCK(carrier, masks)
        for moved in (alg, zero_moved_to(alg, 1 + i % 2)):
            labels, _, table = naive.raw_table(3, moved.table)
            want = naive.hk_valid(labels, labels[moved.zero], table)
            # HK4 only adds a condition, so a table failing HK1-HK3 fails strictly too.
            strict = want and naive.hk_valid(labels, labels[moved.zero], table, True)
            assert hk_axioms_hold_raw(3, moved.zero, moved.table) == want
            assert hk_axioms_hold_raw(3, moved.zero, moved.table, True) == strict
            valid += want
    assert valid > 1000


def test_fail_fast_matches_report_on_every_size3_leaf_past_hk2(search_leaves):
    """Only these leaves reach the past-HK2 generator in the fail-fast check."""
    plan = _hk2_plan(3, 0)
    past = [t for t in search_leaves if _hk2_mismatch(t, plan) is None]
    assert len(past) == 17015
    carrier = Carrier(("0", "1", "2"), 0)
    failing = 0
    for t in past:
        alg = HyperBCK(carrier, t)
        report = validate_hyper_bck(alg)
        assert hk_axioms_hold_raw(3, 0, t) == report.passed
        if not report.passed:  # the only leaves where the search meets a failing HK1 instance
            assert {v.axiom for v in report.violations} == {"HK1"}
            _assert_report_matches_oracle(alg, report, False)
            failing += 1
    assert failing == 1079


def test_cached_row_tables_are_pure_functions_of_their_key(corpus_le2, corpus3):
    """Sizes 3, 4 and 7 interleaved, zero moved: the row-table cache, warmed by the other
    sizes and zeros, never changes a verdict or a report against the literal oracle."""
    rng = random.Random(20261020)
    factors = [FuzzyHyperBCK(alg, (0,) * alg.size) for alg in corpus_le2 if alg.size == 2]
    models = {
        3: corpus3.models,
        4: [product([f, g]).object.alg for f in factors for g in factors],
        7: [chain_example(7).alg],
    }
    assert 4 <= _TABLED_SIZE < 7
    for i in range(90):
        n = (3, 4, 7)[i % 3]
        if i % 2:
            alg = rng.choice(models[n])
        else:  # a random table, listed past HK2 by the reporting validator all the same
            masks = [rng.randrange(1, 1 << n) for _ in range(n * n)]
            alg = HyperBCK(Carrier(tuple(map(str, range(n))), 0), masks)
        alg = zero_moved_to(alg, rng.randrange(n))
        oracle = naive.hk_failures(*naive.table_of(alg), True)
        report = validate_hyper_bck(alg, strict_antisymmetry=True)
        assert [(v.axiom, v.witness) for v in report.violations] == oracle
        assert hk_axioms_hold(alg, strict_antisymmetry=True) == (not oracle)
        assert hk_axioms_hold(alg) == (not [f for f in oracle if f[0] != "HK4"])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hk2_plan_lists_each_instance_once_with_the_zero_row_last(n):
    for zero in range(n):
        plan = _hk2_plan(n, zero)
        triples = [item[:3] for item in plan]
        assert sorted(triples) == [
            (x, y, z) for x in range(n) for y in range(n) for z in range(y + 1, n)
        ]
        for x, y, z, xy, xz, gz, gy in plan:
            assert (xy, xz) == (x * n + y, x * n + z)
            for m in range(1 << n):
                assert list(gz[m]) == [t * n + z for t in iter_bits(m)]
                assert list(gy[m]) == [t * n + y for t in iter_bits(m)]
        rows = [x for x, *_ in plan]
        assert rows == sorted(rows, key=lambda x: x == zero)


def test_hk2_plans_held_stay_under_their_instance_bound():
    # A plan at 32 elements lists 15,872 instances; the cache takes 16 entries,
    # but 16 such plans would pass the bound on the instances it holds.
    per_plan = 32 * 32 * 31 // 2
    assert per_plan * 8 <= HK2_PLAN_BOUND < per_plan * 16
    _hk2_plan.cache_clear()
    held = []
    try:
        for zero in range(32):
            plan = _hk2_plan(32, zero)
            assert len(plan) == per_plan and _hk2_plan(32, zero) is plan  # the newest is kept
            held.append(_hk2_plan.cache_info().currsize * per_plan)
    finally:
        _hk2_plan.cache_clear()
    assert max(held) <= HK2_PLAN_BOUND and max(held) > per_plan


@pytest.mark.parametrize("n", [0, 1, 3, 6, 7, 9])
def test_mask_ors_matches_a_literal_or_over_the_bits(n):
    rng = random.Random(n)
    parts = [rng.randrange(1 << 12) for _ in range(n)]
    ors = _mask_ors(parts)
    for mask in [*range(1 << n), *range(1 << n)]:  # twice: filled entries are kept
        literal = 0
        for i in iter_bits(mask):
            literal |= parts[i]
        assert ors[mask] == literal


def test_a_large_carrier_is_checked_without_a_table_of_every_mask():
    """Tabling all 2**14 masks per row and per plan column would hold about 30 MB."""
    alg = chain_example(14).alg
    tracemalloc.start()
    try:
        report = validate_hyper_bck(alg, strict_antisymmetry=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    oracle = naive.hk_failures(*naive.table_of(alg), True)
    assert [(v.axiom, v.witness) for v in report.violations] == oracle


def test_subalgebra_masks_agree_with_literal_oracle(corpus_le2, chains):
    for alg in list(corpus_le2) + [chains[k].alg for k in range(1, 6)]:
        labels, zero, table = naive.table_of(alg)
        for mask in range(1, alg.carrier.full_mask + 1):
            subset = alg.carrier.labels_of(mask)
            assert alg.is_subalgebra_mask(mask) == naive.is_subalgebra(table, zero, subset)


def test_set_order_masks_agree_with_literal_oracle(corpus_le2, chains):
    algs = list(corpus_le2) + [chains[k].alg for k in range(1, 5)]
    algs += [zero_moved_to(alg, alg.size - 1) for alg in algs if alg.size > 1]
    for alg in algs:
        labels, zero, table = naive.table_of(alg)
        for a in range(1, alg.carrier.full_mask + 1):
            for b in range(1, alg.carrier.full_mask + 1):
                expected = naive.set_order(
                    table, zero, alg.carrier.labels_of(a), alg.carrier.labels_of(b)
                )
                assert alg.set_order_masks(a, b) == expected


def test_reflexivity_holds_only_on_the_antisymmetric_corpus(corpus_le3):
    # x<x for all x is NOT a consequence of the three axioms alone: the
    # default corpus contains refuting models (e.g. all cells {O} except
    # b*b = {a}).  With antisymmetry added it holds throughout.  The
    # counterexample count is a frozen enumeration-derived value.
    non_reflexive = [
        alg
        for alg in corpus_le3
        if any(not alg.hyper_order(x, x) for x in alg.carrier.labels)
    ]
    assert len(non_reflexive) == 338
    for alg in corpus_le3:
        if hk_axioms_hold(alg, strict_antisymmetry=True):
            for x in alg.carrier.labels:
                assert alg.hyper_order(x, x)
                assert alg.set_order({x}, {x})


def test_subalgebra_restriction_validates(corpus_le3):
    for alg in corpus_le3[:: max(1, len(corpus_le3) // 400)]:
        for mask in range(1, alg.carrier.full_mask + 1):
            if alg.is_subalgebra_mask(mask):
                assert hk_axioms_hold(alg.restrict_mask(mask))


def test_restriction_matches_literal_oracle(corpus_le2):
    # the last carrier has eight elements, past the size whose mask tables are filled ahead
    factors = [FuzzyHyperBCK(alg, (0,) * alg.size) for alg in corpus_le2[1:4]]
    big = zero_moved_to(product(factors).object.alg, 5)
    assert big.size > _TABLED_SIZE
    for alg in [*corpus_le2, zero_moved_to(corpus_le2[1], 1), big]:
        labels, zero, table = naive.table_of(alg)
        for mask in range(1, alg.carrier.full_mask + 1):
            subset = frozenset(labels[i] for i in range(alg.size) if mask >> i & 1)
            if not naive.is_subalgebra(table, zero, subset):
                refusals = []
                for _ in range(2):  # a refusal is never kept
                    with pytest.raises(InputError) as refused:
                        alg.restrict_mask(mask)
                    refusals.append((refused.value.code, str(refused.value)))
                assert refusals[0] == refusals[1]
                continue
            sub = alg.restrict_mask(mask)
            again = alg.restrict_mask(mask)
            assert again is sub or (again == sub and len(alg._restrictions) == RESTRICTIONS_KEPT)
            want = naive.restricted_table(labels, zero, table, subset)
            assert (sub.carrier.labels, sub.carrier.zero_label, naive.table_of(sub)[2]) == want


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_set_star_singleton_coherence_and_monotonicity(data, corpus2):
    alg = data.draw(st.sampled_from(corpus2.models))
    labels = list(alg.carrier.labels)
    x = data.draw(st.sampled_from(labels))
    y = data.draw(st.sampled_from(labels))
    assert alg.set_star({x}, {y}) == alg.star(x, y)
    a = frozenset(data.draw(st.sets(st.sampled_from(labels), min_size=1)))
    b = frozenset(data.draw(st.sets(st.sampled_from(labels), min_size=1)))
    a_big = a | frozenset(data.draw(st.sets(st.sampled_from(labels))))
    b_big = b | frozenset(data.draw(st.sets(st.sampled_from(labels))))
    assert alg.set_star(a, b) <= alg.set_star(a_big, b_big)


def test_restrict_preserves_label_order(c3):
    sub = c3.restrict({"2", "1"})
    assert sub.carrier.labels == ("1", "2")
    assert sub.carrier.zero_label == "1"
    assert sub.star("2", "2") == {"1", "2"}
    with pytest.raises(InputError, match="not a subalgebra"):
        c3.restrict({"2", "3"})


def test_restrictions_kept_stop_at_their_bound():
    # Every mask holding the zero of a six-element table of zero cells is
    # closed: 31 proper subalgebras, more than an algebra keeps.
    labels = tuple("Oabcde")
    alg = HyperBCK(Carrier(labels, 0), (1,) * 36)
    masks = range(1, 63, 2)
    first = [alg.restrict_mask(m) for m in masks]
    assert len(alg._restrictions) == RESTRICTIONS_KEPT < len(masks)
    for m, sub in zip(masks, first):
        again = alg.restrict_mask(m)
        assert (again is sub) == (m in alg._restrictions) and again == sub
        assert sub.carrier.labels == tuple(labels[i] for i in iter_bits(m))
    fresh = HyperBCK(Carrier(labels, 0), (1,) * 36)
    assert (alg, hash(alg), repr(alg)) == (fresh, hash(fresh), repr(fresh))


def test_restrict_mask_refuses_masks_without_zero_or_not_closed(c3):
    with pytest.raises(InputError, match=r"\['2', '3'\] is not a subalgebra"):
        c3.restrict_mask(0b110)  # lacks zero
    with pytest.raises(InputError, match=r"\['1', '3'\] is not a subalgebra"):
        c3.restrict_mask(0b101)  # 3*3 holds 2, outside the mask


def test_structure_refusals_carry_codes_and_locations():
    with pytest.raises(InputError) as exc:
        HyperBCK.from_sets(["O", "a"], "z", {})
    assert (exc.value.code, exc.value.location) == ("zero-unknown", "zero")
    with pytest.raises(InputError) as exc:  # the carrier's own rule comes first
        HyperBCK.from_sets([], "z", {})
    assert (exc.value.code, exc.value.location) == ("carrier", "carrier")
    carrier = Carrier(("O", "a"), 0)
    for table, code, location in [
        ((1, 1, 1), "table-incomplete", "table"),
        ((1, 1, 0, 1), "empty-cell", "table['a,O']"),
        ((1, 1, 1, 4), "unknown-label", "table['a,a']"),
    ]:
        with pytest.raises(InputError) as exc:
            HyperBCK(carrier, table)
        assert (exc.value.code, exc.value.location) == (code, location)
    with pytest.raises(InputError) as exc:
        Carrier(("O", "a"), 2)
    assert (exc.value.code, exc.value.location) == ("zero-unknown", "zero")
    with pytest.raises(InputError) as exc:
        HyperBCK.from_sets(["O", "a"], "O", {("O", "O"): ["O"], ("a", "a"): ["O"]})
    assert (exc.value.code, exc.value.location, str(exc.value)) == (
        "table-incomplete", "table", "table has 2 of 4 required cells"
    )
    with pytest.raises(InputError) as exc:
        trivial_algebra().star("O", "9")
    assert exc.value.code == "unknown-label"
