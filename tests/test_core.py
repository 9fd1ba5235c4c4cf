"""Carrier/table structure, hyperoperation semantics, and the axiom validator."""

from __future__ import annotations

import ast
import gc
import importlib
import itertools
import os
import pkgutil
import random
import subprocess
import sys
import time
import tracemalloc
import types
import weakref
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
from hyperbck import core, corpus
from hyperbck.core import (
    AXIOM_CHECK_BOUND,
    FINDINGS_KEPT,
    HK2_PLAN_BOUND,
    RESTRICTIONS_KEPT,
    _TABLED_SIZE,
    _hk2_mismatch,
    _hk2_plan,
    _mask_ors,
    _past_hk2_failures,
    _walk,
    _zero_pattern,
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
    before = _zero_pattern.cache_info()
    assert hk_axioms_hold(alg) and validate_hyper_bck(alg).passed  # reads the cached masks
    after = _zero_pattern.cache_info()
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
    store = iter_bits.__self__
    assert isinstance(store, core._Kept) and store.held <= store.limit == core.BITS_KEPT
    assert store.held == sum(max(store.least, len(bits)) for bits in store.values())


def test_iter_bits_holds_wide_masks_by_their_bits():
    # Random 256-bit masks hold about 128 bits each: the store keeps at most about 512 of
    # 4,096 at once, and never more than a mebibyte (4.8 MiB as 4,096 entries of any size).
    rng = random.Random(256)
    masks = [rng.getrandbits(256) for _ in range(1 << 12)]
    store, most = iter_bits.__self__, 0
    store.clear()
    tracemalloc.start()
    try:
        for mask in masks:
            iter_bits(mask)
            most = max(most, len(store))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        store.clear()
    assert peak <= 1 << 20 and 256 < most < 1024


def test_walk_matches_the_product_filtered_by_the_same_checks():
    # Each check reads positions up to k only, so on a whole tuple it sees what the walk saw.
    checks = [
        lambda k, v: True,
        lambda k, v: False,  # rejects everything
        lambda k, v: k < 2 or v[2] != v[0],  # rejects partway down
        lambda k, v: k > 0 or v[0] != 1,
        lambda k, v: k == 0 or v[k] > v[k - 1],
    ]
    shapes = [
        [range(3), range(2), range(3)],
        [(1,), range(3), range(2), (0,)],  # singleton domains first and last
        [range(2), (4,), range(3)],
        [range(4)],
        [(2,)],
    ]
    for domains in shapes:
        for ok in checks:
            asked = []

            def spy(k, values, ok=ok):
                asked.append(tuple(values[: k + 1]))
                return ok(k, values)

            want = [t for t in itertools.product(*domains) if all(ok(k, t) for k in range(len(t)))]
            assert list(_walk(domains, spy)) == want
            # each prefix is asked about once, and only once every shorter prefix of it passed
            assert len(asked) == len(set(asked))
            assert all(ok(j, p) for p in asked for j in range(len(p) - 1))


def test_every_cache_in_the_package_is_bounded():
    import hyperbck

    cached, kept = {}, {}
    for info in pkgutil.iter_modules(hyperbck.__path__):
        module = importlib.import_module(f"hyperbck.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                cached[f"{info.name}.{name}"] = obj.cache_info().maxsize
            elif isinstance(getattr(obj, "__self__", obj), core._Kept):  # a store or its lookup
                kept[f"{info.name}.{name}"] = getattr(obj, "__self__", obj)
    assert {
        "category.enumerate_regular_congruences",
        "cli.build_parser",
        "core._tabled_ors",
        "core._zero_pattern",
        "corpus._corpus",
        "corpus._relabel_plans",
        "corpus._search_tables",
        "fuzzy._cut_masks",
        "fuzzy._info_checks",
        "morphisms.enumerate_homs",
        "morphisms._probe_hom_maps",
        "morphisms._probes_by_image",
        "morphisms._table_pairs",
    } <= set(cached)
    assert {name: size for name, size in cached.items() if size is None} == {}
    # every other module-level store is bounded by its charges, and so by its entries
    assert {
        "category._crisp_product",
        "core._findings",
        "core._hk2_plan",
        "core.iter_bits",
        "fuzzy._membership_pairs",
        "fuzzy._membership_verdict",
        "io._render_pieces",
    } <= set(kept)
    assert all(0 < store.least <= store.limit for store in kept.values())
    # and no function keeps a bound by emptying its own cache
    clearing_itself = []
    for path in sorted((SRC / "hyperbck").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(fn):
                    target = getattr(call, "func", None)
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "cache_clear"
                        and isinstance(target.value, ast.Name)
                        and target.value.id == fn.name
                    ):
                        clearing_itself.append(f"{path.name}:{call.lineno} {fn.name}")
    assert clearing_itself == []


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


def _zero_moved_reports(alg):
    """Both reports of ``alg`` with its zero moved to 0, 4 and 8, each matched to the literal
    oracle and to the fail-fast check."""
    for k in (0, 4, 8):
        moved = zero_moved_to(alg, k)
        for strict in (False, True):
            report = validate_hyper_bck(moved, strict_antisymmetry=strict)
            _assert_report_matches_oracle(moved, report, strict)
            assert hk_axioms_hold(moved, strict_antisymmetry=strict) == report.passed
            yield report


def test_a_nine_element_product_with_zero_moved_matches_literal_oracle(corpus3):
    """Past ``_TABLED_SIZE``: the 3-chain, which breaks HK1, times a size-3 model."""
    factor = FuzzyHyperBCK(corpus3.models[5000], (0, 0, 0))
    alg = product([chain_example(3), factor]).object.alg
    assert alg.size == 9 > _TABLED_SIZE
    for report in _zero_moved_reports(alg):
        assert any(v.axiom == "HK1" for v in report.violations)


def test_a_nine_element_product_of_models_with_zero_moved_matches_literal_oracle(corpus3):
    """Past ``_TABLED_SIZE`` where nothing may be found: two antisymmetric size-3 models,
    whose product has no element above all, so HK1 tests every pair against its D."""
    alg = product([FuzzyHyperBCK(corpus3.models[i], (0, 0, 0)) for i in (338, 357)]).object.alg
    assert alg.size == 9 > _TABLED_SIZE
    for report in _zero_moved_reports(alg):
        assert report.passed


def _literal_detail(oracle, axiom, witness):
    """A violation's text as the literal oracle spells it, for every axiom."""
    labels, zero, table = oracle
    if axiom in _SIDES_DETAIL:
        lhs, rhs = naive.hk_sides(table, axiom, witness)
        return _SIDES_DETAIL[axiom].format(sorted(lhs), sorted(rhs))
    if axiom == "HK3":
        (x,) = witness
        image = naive.set_star(table, frozenset({x}), frozenset(labels))
        stray = next(t for t in labels if t in image and not naive.less(table, zero, t, x))
        return f"{stray} in x*H but not below x"
    return "x<y and y<x with x != y"


def _empty_findings():
    core._findings.clear()


def _findings_charged() -> int:
    """A label set and each finding are charged one."""
    return len(core._findings) + sum(map(len, core._findings.values()))


def test_shared_findings_are_keyed_by_the_labels(corpus3):
    # The same tables under three label sets and every zero, interleaved, twice:
    # the second round reads every violation the first one built.
    rng = random.Random(20261020)
    tables = [tuple(rng.randrange(1, 8) for _ in range(9)) for _ in range(60)]
    for alg in rng.sample(list(corpus3), 30):
        table = list(alg.table)
        table[rng.randrange(9)] = rng.randrange(1, 8)
        tables.append(tuple(table))
    label_sets = [("0", "1", "2"), ("x", "y", "z"), ("O", "a", "b")]
    _empty_findings()
    axioms = set()
    for _ in range(2):
        for masks in tables:
            for zero in range(3):
                for labels in label_sets:
                    alg = HyperBCK(Carrier(labels, zero), masks)
                    report = validate_hyper_bck(alg, strict_antisymmetry=True)
                    oracle = naive.table_of(alg)
                    assert [(v.axiom, v.witness) for v in report.violations] == naive.hk_failures(
                        *oracle, True
                    )
                    for v in report.violations:
                        assert v.detail == _literal_detail(oracle, v.axiom, v.witness)
                        fresh = Violation(v.axiom, v.witness, v.detail)
                        assert (v, hash(v), repr(v)) == (fresh, hash(fresh), repr(fresh))
                        axioms.add(v.axiom)
                again = validate_hyper_bck(alg, strict_antisymmetry=True)
                assert again == report
                assert all(a is b for a, b in zip(again.violations, report.violations))
    assert axioms == {"HK1", "HK2", "HK3", "HK4"}
    assert 0 < core._findings.held == _findings_charged() < FINDINGS_KEPT
    assert sorted(core._findings) == sorted(label_sets)


def test_findings_kept_stop_at_their_bound():
    """The 64-element product of two 8-chains fails far more instances than are kept: a
    finding that would pass the bound empties the store first, so the last ones stay."""
    chain = chain_example(8)
    alg = product([chain, chain]).object.alg
    assert alg.size == 64
    _empty_findings()
    report = validate_hyper_bck(alg)
    n = len(report.violations)
    assert n > FINDINGS_KEPT and len(set(report.violations)) == n
    store = core._findings
    kept = store[alg.carrier.labels]
    # the label set and 4,095 findings fill the store; each emptying restarts it at one finding
    assert len(kept) == (n - FINDINGS_KEPT) % (FINDINGS_KEPT - 1) + 1
    assert list(store) == [alg.carrier.labels] and store.held == 1 + len(kept) <= FINDINGS_KEPT
    assert list(kept.values()) == list(report.violations[-len(kept) :])
    # the next report keeps its findings beside those while they fit
    small = HyperBCK(Carrier(("p", "q", "r"), 1), (7, 1, 2, 4, 4, 1, 3, 6, 5))
    small_report = validate_hyper_bck(small, strict_antisymmetry=True)
    _assert_report_matches_oracle(small, small_report, True)
    assert list(store) == [alg.carrier.labels, small.carrier.labels]
    assert store.held == _findings_charged() == 2 + len(kept) + len(small_report.violations)
    # a report that passes the bound empties the store, the small report's findings too
    assert validate_hyper_bck(alg) == report
    assert list(store) == [alg.carrier.labels]
    assert store.held == _findings_charged() <= FINDINGS_KEPT


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
    plan = _hk2_plan[3, 0]
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


class _CountedLookups:
    """A store's stand-in that counts the lookups made through it."""

    def __init__(self, store):
        self.store, self.asked = store, 0

    def __getitem__(self, key):
        self.asked += 1
        return self.store[key]


@pytest.mark.parametrize("order", ["search", "shuffled"])
def test_the_hk2_hint_never_changes_a_verdict_on_the_size3_leaves(search_leaves, order, monkeypatch):
    """Every leaf, in search order or shuffled: the leaves passed are exactly the search's
    output, whose bytes ``test_size3_search_output_is_frozen`` pins; a seeded sample is also
    held against the report and the literal oracle, under the hint the leaves before it left."""
    leaves = list(search_leaves)
    if order == "shuffled":
        random.Random(20261021).shuffle(leaves)
    sampled = set(random.Random(20261022).sample(range(len(leaves)), 2500))
    carrier = Carrier(("0", "1", "2"), 0)
    plans = _CountedLookups(_hk2_plan)
    monkeypatch.setattr(core, "_hk2_plan", plans)
    kept = []
    for i, t in enumerate(leaves):
        verdict = hk_axioms_hold_raw(3, 0, t)
        if i in sampled:
            labels, _, table = naive.raw_table(3, t)
            assert verdict == validate_hyper_bck(HyperBCK(carrier, t)).passed
            assert verdict == naive.hk_valid(labels, "0", table)
        if verdict:
            kept.append(t)
    if order == "search":  # looked up where the hint missed or HK2 held, and by each report
        assert plans.asked <= 21485 + 17015 + 2500
    assert sorted(kept) == list(_search_tables(3))


def test_the_hk2_hint_never_changes_a_verdict_across_sizes_and_zeros(corpus_le2, corpus3):
    """Sizes 4, 3, 5, 2 and 1 in turn: a seeded table, which mostly fails HK2 and leaves
    its instance as the hint, then a model of the same size with its zero moved, so each
    size meets the hint another size left, and each model one its own size left."""
    rng = random.Random(20261023)
    factors = [FuzzyHyperBCK(alg, (0,) * alg.size) for alg in corpus_le2 if alg.size == 2]
    models = {
        1: [alg for alg in corpus_le2 if alg.size == 1],
        2: [alg for alg in corpus_le2 if alg.size == 2],
        3: corpus3.models,
        4: [product([f, g]).object.alg for f in factors for g in factors],
        5: [],
    }
    passed = 0
    for i in range(300):
        n = (4, 3, 5, 2, 1)[i % 5]
        masks = tuple(rng.randrange(1, 1 << n) for _ in range(n * n))
        algs = [HyperBCK(Carrier(tuple(map(str, range(n))), rng.randrange(n)), masks)]
        if models[n]:
            algs.append(zero_moved_to(rng.choice(models[n]), rng.randrange(n)))
        for alg in algs:
            labels, zero, table = naive.table_of(alg)
            for strict in (False, True):
                want = naive.hk_valid(labels, zero, table, strict)
                assert hk_axioms_hold_raw(n, alg.zero, alg.table, strict) == want
                assert validate_hyper_bck(alg, strict_antisymmetry=strict).passed == want
                passed += want
    assert passed > 200

    # A hint left by size 4 is not read at size 3, and a refusal leaves it as it was.
    four = (1,) * 16
    while not _hk2_mismatch(four, _hk2_plan[4, 0]):
        four = tuple(rng.randrange(1, 16) for _ in range(16))
    for alg in corpus3.models[::500]:
        assert not hk_axioms_hold_raw(4, 0, four) and core._hk2_hint[0] == 4
        assert hk_axioms_hold_raw(3, alg.zero, alg.table)
    n = AXIOM_CHECK_BOUND + 1
    with pytest.raises(InputError, match="not 65") as refused:
        hk_axioms_hold_raw(n, 0, (1,) * (n * n))
    assert refused.value.code == "too-large" and core._hk2_hint[0] == 4


def test_the_inline_hint_test_is_the_scan_body_for_its_instance(search_leaves, monkeypatch):
    """The fail-fast check ORs its hint's two sides inline, a copy of ``_hk2_mismatch``'s
    body: holding each plan instance in turn as the hint, it rejects every size-3 leaf, and
    seeded tables of sizes 2, 4 and 5 under every instance of their plans, exactly when the
    scan of that instance alone finds unequal sides.  With the plan store emptied, a table
    the hint lets through raises at the plan lookup, so only the hint can reject."""
    plan3 = _hk2_plan[3, 0]
    cases = [(3, plan3[i % len(plan3)], t) for i, t in enumerate(search_leaves)]
    rng = random.Random(20261025)
    for n in (2, 4, 5):
        plan = _hk2_plan[n, rng.randrange(n)]
        for _ in range(40):
            t = tuple(rng.randrange(1, 1 << n) for _ in range(n * n))
            cases += [(n, instance, t) for instance in plan]
    monkeypatch.setattr(core, "_hk2_plan", {})
    rejected = 0
    for n, instance, t in cases:
        core._hk2_hint[:] = n, *instance
        try:
            rejects = hk_axioms_hold_raw(n, 0, t) is False
        except KeyError:
            rejects = False
        assert rejects == (_hk2_mismatch(t, (instance,)) is not None)
        rejected += rejects
    assert 0 < rejected < len(cases)


def _hk3_table(rng: random.Random, n: int, zero: int) -> tuple[list[int], list[int]]:
    """A seeded table whose cells hold only elements below their row's x, so it meets HK3,
    and its down masks; the zero's row holds the zero in every cell."""
    has_zero = [[x == zero or rng.random() < 0.4 for _ in range(n)] for x in range(n)]
    while True:  # a row whose x has only the zero below it holds the zero in every cell
        dn = [sum(1 << u for u in range(n) if has_zero[u][v]) for v in range(n)]
        lonely = [x for x in range(n) if dn[x] == 1 << zero and not all(has_zero[x])]
        if not lonely:
            break
        for x in lonely:
            has_zero[x] = [True] * n
    cells = []
    for x in range(n):
        others = [t for t in iter_bits(dn[x]) if t != zero]
        for y in range(n):
            cell = sum(1 << t for t in others if rng.random() < 0.5) | has_zero[x][y] << zero
            cells.append(cell or 1 << rng.choice(others))
    return cells, dn


def test_the_hk3_gate_lets_no_stray_through():
    """Seeded tables of sizes 1 to 6, zero moved, that meet HK3; then each with one stray, an
    element not below x, put in the first, a middle and the last cell of row x, for every
    row that can hold one, the zero's row included.  Reports equal the literal oracle's."""
    rng = random.Random(20261026)
    strays = zero_rows = 0
    for i in range(36):
        n = 1 + i % 6
        zero = 1 + i // 6 % (n - 1) if n > 1 else 0
        cells, dn = _hk3_table(rng, n, zero)
        tables = [cells]
        for x in range(n):
            loose = [t for t in range(n) if not dn[x] >> t & 1]
            for y in sorted({0, n // 2, n - 1}) if loose else ():
                stray = list(cells)
                stray[x * n + y] |= 1 << rng.choice(loose)
                tables.append(stray)
                zero_rows += x == zero
        strays += len(tables) - 1
        for k, table in enumerate(tables):
            alg = HyperBCK(Carrier(tuple(map(str, range(n))), zero), table)
            oracle = naive.hk_failures(*naive.table_of(alg))
            report = validate_hyper_bck(alg)
            assert [(v.axiom, v.witness) for v in report.violations] == oracle
            assert hk_axioms_hold(alg) == (not oracle)
            assert sum(axiom == "HK3" for axiom, _ in oracle) == (k > 0)
    assert strays > 150 and zero_rows > 10


@pytest.mark.parametrize("strict", [False, True])
def test_the_zero_pattern_pass_lists_the_literal_oracles_items(strict):
    """Seeded tables at sizes 2 to 7, the past-HK2 pass against the literal oracle's HK1, HK3
    and HK4 items: half hold the zero in every cell, so every D is the whole carrier and HK1
    is skipped whole, half hold it in about half their cells.  Size 7 is past the cache."""
    rng = random.Random(20261024)
    skipped = entered = 0
    for i in range(240):
        n, zero, everywhere = 2 + i % 6, rng.randrange(2 + i % 6), i // 6 % 2
        masks = tuple(rng.randrange(1, 1 << n) | everywhere << zero for _ in range(n * n))
        alg = HyperBCK(Carrier(tuple(map(str, range(n))), zero), masks)
        before = _zero_pattern.cache_info()
        items = list(_past_hk2_failures(n, zero, masks, strict))
        after = _zero_pattern.cache_info()
        assert after.hits + after.misses - before.hits - before.misses == (n <= _TABLED_SIZE)
        if n <= _TABLED_SIZE:
            _, below, easy, outside = _zero_pattern(n, bytes(c >> zero & 1 for c in masks))
            assert set(easy) == {m for m in range(1 << n) if below[m] == (1 << n) - 1}
            dn = [sum(1 << u for u in range(n) if masks[u * n + v] >> zero & 1) for v in range(n)]
            assert (outside == 0) == (set(dn) == {(1 << n) - 1})  # no cell mask can stray
            for p, t in itertools.product(range(n * n), range(n)):  # t alone in cell p
                alone = int.from_bytes(bytes(1 << t if q == p else 0 for q in range(n * n)), "big")
                assert bool(alone & outside) == (not dn[p // n] >> t & 1)
            no_hk3 = not any(axiom == "HK3" for axiom, *_ in items)
            assert (int.from_bytes(bytes(masks), "big") & outside == 0) == no_hk3
            skip = set(masks) <= set(easy)  # every cell's D is the carrier
            skipped += skip
            entered += not skip
            assert everywhere <= skip
        labels, zero_label, table = naive.table_of(alg)
        oracle = [f for f in naive.hk_failures(labels, zero_label, table, strict) if f[0] != "HK2"]
        assert [(axiom, tuple(map(str, idx))) for axiom, idx, _, _ in items] == oracle
        for axiom, idx, lhs, rhs in items:
            if axiom == "HK1":
                sides = naive.hk_sides(table, "HK1", tuple(map(str, idx)))
                assert (alg.carrier.labels_of(lhs), alg.carrier.labels_of(rhs)) == sides
            elif axiom == "HK3":
                (x,) = idx
                stray = [t for t in range(n) if any(masks[x * n + y] >> t & 1 for y in range(n))
                         and not masks[t * n + x] >> zero & 1]
                assert (lhs, rhs) == (1 << stray[0], 1 << x)
            else:
                assert (lhs, rhs) == (1 << idx[0], 1 << idx[1])
    assert skipped > 50 and entered > 50


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
    # An instance holds the positions x*n + y and x*n + z only; the triple is read back
    # from them by divmod, as the reporting path does on a mismatch.
    for zero in range(n):
        triples = []
        for xy, xz, gz, gy in _hk2_plan[n, zero]:
            (x, y), (xz_row, z) = divmod(xy, n), divmod(xz, n)
            assert xz_row == x and y < z
            triples.append((x, y, z))
            for m in range(1 << n):
                assert list(gz[m]) == [t * n + z for t in iter_bits(m)]
                assert list(gy[m]) == [t * n + y for t in iter_bits(m)]
        assert sorted(triples) == [
            (x, y, z) for x in range(n) for y in range(n) for z in range(y + 1, n)
        ]
        rows = [x for x, _, _ in triples]
        assert rows == sorted(rows, key=lambda x: x == zero)


def test_hk2_plans_held_stay_under_their_instance_bound():
    # A plan at 32 elements lists 15,872 instances; the store takes 64 entries,
    # but 16 such plans would pass the bound on the instances it holds.
    per_plan = 32 * 32 * 31 // 2
    assert per_plan * 8 <= HK2_PLAN_BOUND < per_plan * 16
    _hk2_plan.clear()
    held = []
    try:
        for zero in range(32):
            plan = _hk2_plan[32, zero]
            assert len(plan) == per_plan and _hk2_plan[32, zero] is plan  # the newest is kept
            assert _hk2_plan.held == len(_hk2_plan) * per_plan
            held.append(_hk2_plan.held)
        # plans of up to 16 elements (1,920 instances) are charged a sixty-fourth of the
        # bound: of these 136, sixty-four are kept at most
        _hk2_plan.clear()
        for n in range(1, 17):
            for zero in range(n):
                plan = _hk2_plan[n, zero]
                assert _hk2_plan[n, zero] is plan and len(_hk2_plan) <= 64
                assert _hk2_plan.held == len(_hk2_plan) * HK2_PLAN_BOUND // 64
    finally:
        _hk2_plan.clear()
    assert max(held) <= HK2_PLAN_BOUND and max(held) > per_plan


def test_the_hk2_plan_at_the_bound_is_kept_beside_a_small_plan():
    _hk2_plan.clear()
    try:
        plan = _hk2_plan[AXIOM_CHECK_BOUND, 0]
        assert len(plan) == 129_024 and len(_hk2_plan[3, 0]) == 9
        assert _hk2_plan[AXIOM_CHECK_BOUND, 0] is plan and _hk2_plan.held == HK2_PLAN_BOUND
    finally:
        _hk2_plan.clear()


def test_kept_store_holds_exactly_its_charges_within_its_bound():
    """Seeded key and weight sequences: ``held`` is the sum of the kept entries' charges (each
    at least ``limit // maxsize``) and stays within the limit, the newest entry is kept unless
    it alone passes the limit, and no more than ``maxsize`` entries are kept."""
    rng = random.Random(20261025)
    emptied = 0
    for _ in range(300):
        limit, maxsize = rng.choice([(16, 16), (100, 7), (1 << 10, 8), (50, 50), (9, 1)])
        least, weights, built = limit // maxsize, {}, []
        weigh = lambda key, value: weights[key]  # noqa: E731
        store = core._Kept(lambda key: built.append(key) or -key, limit, maxsize, weigh)
        for _ in range(40):
            key = rng.randrange(30)
            weight = rng.choice([0, 1, least, rng.randrange(limit + 2)])
            charge = max(least, weights.setdefault(key, weight))
            had, before, held, builds = key in store, dict(store), store.held, len(built)
            assert store[key] == -key and len(built) == builds + (not had)  # a hit builds nothing
            if had or charge > limit:  # a hit, or a value alone past the limit, keeps all as it was
                assert dict(store) == before and store.held == held
            elif held + charge > limit:  # emptied first, then kept
                assert list(store) == [key]
                emptied += 1
            else:
                assert dict(store) == {**before, key: -key}
            assert store.held == sum(max(least, weights[k]) for k in store) <= limit
            assert len(store) <= maxsize
        store.clear()
        assert (len(store), store.held) == (0, 0)
    assert emptied > 100

    # a make that raises keeps nothing, and raises again on the next lookup
    alg = HyperBCK(Carrier(tuple("Oab"), 0), (1, 1, 1, 2, 1, 1, 4, 4, 1))
    store = core._Kept(alg.restrict_mask, 4, 4)
    assert store[0b011].carrier.labels == ("O", "a")
    for _ in range(2):
        with pytest.raises(InputError, match="not a subalgebra"):
            store[0b110]
        assert list(store) == [0b011] and store.held == 1
    # a charge that would pass the limit empties the store first
    assert not store.charge(3) and store.held == 4
    assert store.charge(1) and (dict(store), store.held) == ({}, 1)


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


def test_set_order_and_set_star_agree_with_literal_oracle(corpus_le2, chains):
    algs = list(corpus_le2) + [chains[k].alg for k in range(1, 5)]
    algs += [zero_moved_to(alg, alg.size - 1) for alg in algs if alg.size > 1]
    for alg in algs:
        labels, zero, table = naive.table_of(alg)
        subsets = [alg.carrier.labels_of(m) for m in range(1, alg.carrier.full_mask + 1)]
        for a in subsets:
            for b in subsets:
                assert alg.set_order(a, b) == naive.set_order(table, zero, a, b)
                assert alg.set_star(a, b) == naive.set_star(table, a, b)
        for op in (alg.set_order, alg.set_star):
            for args in ((set(), labels), (labels, [])):
                with pytest.raises(InputError, match="must be non-empty"):
                    op(*args)


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
            assert alg.restrict_mask(mask) is sub  # the newest is kept
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
    first = []
    for m in masks:
        first.append(alg.restrict_mask(m))
        assert alg.restrict_mask(m) is first[-1]  # the newest is kept
        assert len(alg._restrictions) == alg._restrictions.held <= RESTRICTIONS_KEPT
    # the 17th emptied the store first, so the last 15 are kept
    kept = dict(alg._restrictions)
    assert list(kept) == list(masks[RESTRICTIONS_KEPT:]) and RESTRICTIONS_KEPT < len(masks)
    assert all(alg.restrict_mask(m) is sub for m, sub in kept.items())
    for m, sub in zip(masks, first):
        assert alg.restrict_mask(m) == sub
        assert sub.carrier.labels == tuple(labels[i] for i in iter_bits(m))
    fresh = HyperBCK(Carrier(labels, 0), (1,) * 36)
    assert (alg, hash(alg), repr(alg)) == (fresh, hash(fresh), repr(fresh))


def test_an_algebra_that_restricted_is_freed_without_the_cyclic_collector():
    class Watched(HyperBCK):  # a subclass without slots takes weak references
        pass

    alg = Watched(Carrier(tuple("Oabcde"), 0), (1,) * 36)
    sub = alg.restrict_mask(0b111)
    assert alg.restrict_mask(0b111) is sub
    gone = weakref.ref(alg)
    gc.disable()
    try:
        del alg
        assert gone() is None
    finally:
        gc.enable()
    assert sub.carrier.labels == ("O", "a", "b")


def test_equal_algebras_built_apart_hash_equal_and_share_one_hom_cache_entry(c3):
    twin = HyperBCK(Carrier(c3.carrier.labels, c3.zero), list(c3.table))
    assert twin is not c3 and twin._hash is None and twin == c3  # equality never reads it
    assert hash(twin) == hash(c3) == twin._hash == hash((c3.zero, c3.table))
    assert repr(twin) == repr(HyperBCK(c3.carrier, c3.table))
    relabeled = HyperBCK(Carrier(("x", "y", "z"), c3.zero), c3.table)
    assert hash(relabeled) == hash(c3) and relabeled != c3  # equal hashes, unequal algebras
    enumerate_homs.cache_clear()
    homs = enumerate_homs(c3, c3)
    assert enumerate_homs(twin, twin) is homs
    assert enumerate_homs.cache_info()[:2] == (1, 1)  # one hit, one miss: a single entry
    assert enumerate_homs(relabeled, relabeled) is not homs


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
