"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Four criteria encode universally quantified claims that are FALSE on
concrete small instances; they are implemented as stated and left failing
(run with ``-s`` to see the witness in the printed line):

  * criterion 3: the level set at alpha = 1 is empty whenever mu(zero) < 1,
    so it neither contains zero nor restricts to anything;
  * criterion 7: the tupling forced by a cone need not be a homomorphism
    (identity cone into a square: its image of a cell is the diagonal,
    the product cell is the full square), so no mediating morphism exists;
  * criterion 8: the agreement set of the two composites defining a
    pullback need not be star-closed (identity cospan), so the
    subset-style construction fails;
  * criterion 11: the graded chain violates the first axiom at (3,2,3)
    for length >= 3 (only its membership inequality holds).

Each failing criterion has a green companion test directly below it that
pins the exact statement that does hold, plus frozen witness data.
Scope reductions forced by combinatorics (criterion 9 cannot enumerate
all 65M pairs of size-3 models in any language at the stated budget) are
noted inline: exhaustive at sizes <= 2, seeded sampling at size 3.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product as iprod

import pytest

import naive_oracle as naive
from conftest import cut_masks, cuts_at_levels_and_ends, grid_assignments, zero_moved_to
from hyperbck import (
    Carrier,
    ClaimViolation,
    FuzzyHyperBCK,
    HyperBCK,
    InputError,
    hk_axioms_hold,
    validate_fuzzy,
    validate_hyper_bck,
)
from hyperbck.category import (
    coequalizer,
    equalizer,
    mediate_coequalizer,
    mediate_product,
    product,
    pullback,
)
from hyperbck.core import iter_bits
from hyperbck.corpus import chain_example, enumerate_hyper_bck
from hyperbck.fuzzy import equals_some_alpha_cut
from hyperbck.io import parse_structure, render_structure
from hyperbck.morphisms import (
    Hom,
    check_mono_equivalence,
    enumerate_homs,
    fuzzy_hom_via_cuts,
    is_fuzzy_hom,
    is_fuzzy_iso,
    is_hom,
)

ZERO = Fraction(0)


def criterion(number: int, ok: bool, description: str, detail: str = "") -> None:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def zero_mu(alg: HyperBCK) -> FuzzyHyperBCK:
    return FuzzyHyperBCK(alg, (ZERO,) * alg.size)


def fuzzy_objects(models, cap: int | None = None):
    for alg in models:
        assignments = grid_assignments(alg)
        yield alg, assignments if cap is None else assignments[:cap]


# --- criterion 1: validator oracle equivalence --------------------------------


def test_c01_validator_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for n, count in ((1, 1), (2, 81)):
        labels = tuple(str(i) for i in range(n))
        carrier = Carrier(labels, 0)
        full = (1 << n) - 1
        tables = list(iprod(range(1, full + 1), repeat=n * n))
        assert len(tables) == count
        for masks in tables:
            alg = HyperBCK(carrier, masks)
            lab, zero, table = naive.raw_table(n, masks)
            assert validate_hyper_bck(alg).passed == naive.hk_valid(lab, zero, table)
            checked += 1
    rng = random.Random(515253)
    carrier = Carrier(("0", "1", "2"), 0)
    for i in range(100_000):
        masks = tuple(rng.randrange(1, 8) for _ in range(9))
        alg = HyperBCK(carrier, masks)
        fast = hk_axioms_hold(alg)
        lab, zero, table = naive.raw_table(3, masks)
        assert fast == naive.hk_valid(lab, zero, table)
        if i < 1_000:  # bridge the fail-fast form to the reporting validator
            assert fast == validate_hyper_bck(alg).passed
        checked += 1
    elapsed = time.perf_counter() - start
    criterion(
        1,
        elapsed < 10.0,
        "axiom validator agrees with the literal oracle",
        f"{checked} tables, {elapsed:.1f}s",
    )


# --- criterion 2: zero-maximality over the corpus ------------------------------


def test_c02_zero_maximality_suite(corpus_le3):
    start = time.perf_counter()
    models = assignments = 0
    for alg, fuzzies in fuzzy_objects(corpus_le3):
        models += 1
        for fz in fuzzies:
            assignments += 1
            top = fz.mu[alg.zero]
            assert all(top >= v for v in fz.mu)
    elapsed = time.perf_counter() - start
    criterion(
        2,
        elapsed < 60.0,
        "mu is maximal at zero on every corpus assignment",
        f"{models} models, {assignments} assignments, {elapsed:.1f}s",
    )


# --- criterion 3: level-set suite ----------------------------------------------


def _cut_suite_failures(corpus_le3, collect_all: bool = False):
    failures = []
    for alg, fuzzies in fuzzy_objects(corpus_le3):
        n, table = alg.size, alg.table
        for fz in fuzzies:
            # the inequality compares degrees only, so the loop below compares ranks
            mu = fz._ranks()
            for alpha, mask in cuts_at_levels_and_ends(fz):
                if mask == 0 or not alg.is_subalgebra_mask(mask):
                    failures.append((alg, fz, alpha, mask))
                    if not collect_all:
                        return failures
                    continue
                # inherited membership bound inside the cut
                members = iter_bits(mask)
                for x in members:
                    for y in members:
                        bound = mu[x] if mu[x] <= mu[y] else mu[y]
                        assert min(map(mu.__getitem__, iter_bits(table[x * n + y]))) >= bound
    return failures


def test_c03_cut_suite_as_stated(corpus_le3):
    start = time.perf_counter()
    failures = _cut_suite_failures(corpus_le3, collect_all=True)
    elapsed = time.perf_counter() - start
    detail = f"{len(failures)} failing instances, {elapsed:.1f}s"
    if failures:
        alg, fz, alpha, mask = failures[0]
        detail += (
            f"; first witness: size-{alg.size} model with mu(zero)="
            f"{fz.mu[alg.zero]} has empty cut at alpha={alpha}"
        )
    criterion(
        3,
        not failures,
        "every cut at levels plus {0,1} contains zero, is closed, and restricts validly",
        detail,
    )


def test_c03_companion_cut_suite_with_nonemptiness(corpus_le3):
    # The cut at alpha is empty exactly when alpha exceeds mu(zero); all
    # non-empty cuts contain zero, are closed, and restrict to valid fuzzy
    # structures.  A seeded sample goes through the public restrict path.
    rng = random.Random(97)
    sampled = 0
    for alg, fuzzies in fuzzy_objects(corpus_le3):
        zbit = 1 << alg.zero
        for fz in fuzzies:
            for alpha, mask in cuts_at_levels_and_ends(fz):
                assert (mask == 0) == (alpha > fz.mu[alg.zero])
                if mask:
                    assert mask & zbit
                    assert alg.is_subalgebra_mask(mask)
                    if rng.random() < 0.002:
                        sampled += 1
                        assert validate_fuzzy(fz.restrict_mask(mask)).passed
    assert sampled > 50


# --- criterion 4: level-set criterion equivalence --------------------------------


def test_c04_cut_criterion_equivalence(corpus_le2, corpus3):
    start = time.perf_counter()
    checked = 0
    for src_alg in corpus_le2:
        src_fuzzies = grid_assignments(src_alg)
        for dst_alg in corpus_le2:
            homs = enumerate_homs(src_alg, dst_alg)
            if not homs:
                continue
            for src in src_fuzzies:
                for dst in grid_assignments(dst_alg):
                    for h in homs:
                        assert is_fuzzy_hom(h, src, dst) == fuzzy_hom_via_cuts(h, src, dst)
                        checked += 1
    rng = random.Random(616263)
    sampled_pairs = 0
    while sampled_pairs < 10_000:
        src_alg = rng.choice(corpus3.models)
        dst_alg = rng.choice(corpus3.models)
        src_list = grid_assignments(src_alg)
        dst_list = grid_assignments(dst_alg)
        src = src_list[rng.randrange(len(src_list))]
        dst = dst_list[rng.randrange(len(dst_list))]
        sampled_pairs += 1
        for h in enumerate_homs(src_alg, dst_alg):
            assert is_fuzzy_hom(h, src, dst) == fuzzy_hom_via_cuts(h, src, dst)
            checked += 1
    elapsed = time.perf_counter() - start
    criterion(
        4,
        True,
        "membership criterion and level-set criterion agree on every hom",
        f"{checked} hom instances ({sampled_pairs} sampled size-3 pairs), {elapsed:.1f}s",
    )


# --- criterion 5: isomorphism characterization -----------------------------------


def test_c05_iso_characterization(corpus_le2):
    checked = 0
    for src_alg in corpus_le2:
        for dst_alg in corpus_le2:
            if src_alg.size != dst_alg.size:
                continue
            bijective = [h for h in enumerate_homs(src_alg, dst_alg) if h.is_bijective()]
            for h in bijective:
                crisp_iso = is_hom(h.inverse())
                for src in grid_assignments(src_alg):
                    for dst in grid_assignments(dst_alg):
                        if not is_fuzzy_hom(h, src, dst):
                            continue
                        expected = crisp_iso and all(
                            dst.mu[h.mapping[i]] == src.mu[i] for i in range(src_alg.size)
                        )
                        assert is_fuzzy_iso(h, src, dst) == expected
                        checked += 1
    criterion(5, True, "iso = bijective hom with hom inverse and equal mu", f"{checked} cases")


# --- criterion 6: mono equivalence at bounded scale --------------------------------


def test_c06_mono_equivalence(corpus_le2):
    start = time.perf_counter()
    checked = agree = 0
    for src_alg in corpus_le2:
        src = zero_mu(src_alg)
        for dst_alg in corpus_le2:
            dst = zero_mu(dst_alg)
            for h in enumerate_homs(src_alg, dst_alg):
                verdict = check_mono_equivalence(h, src, dst, probe_size_bound=3)
                checked += 1
                agree += verdict.agree
                assert verdict.agree
    elapsed = time.perf_counter() - start
    criterion(
        6,
        elapsed < 120.0,
        "bounded fuzzy-mono verdict equals crisp-mono verdict",
        f"{checked} homs, probe bound 3, {elapsed:.1f}s",
    )


def test_c06_companion_fuzzy_probes_match_the_literal_scan(corpus_le2):
    # c06 compares the fuzzy verdict with the crisp one, which the library
    # reads off one witness.  Here a literal scan, sharing no code with the
    # library, searches fuzzy probes (P, nu) with nu over {0, 1/2, 1} passing
    # the inequality for two fuzzy homs into (S, mu) that f joins.  Cases:
    # every hom of size <= 2, also with zero at index 1, and every source
    # membership on that grid that passes the inequality; all at probe bound
    # 2 and a seeded sample at bound 3.
    grid = (ZERO, Fraction(1, 2), Fraction(1))
    models = {k: enumerate_hyper_bck(k, up_to_iso=True).models for k in (1, 2, 3)}
    moved = [zero_moved_to(alg, 1) if alg.size == 2 else alg for alg in corpus_le2]
    cases = []
    for le2 in (corpus_le2, moved):
        for src_alg in le2:
            labels, _, table = naive.table_of(src_alg)
            for mu in iprod(grid, repeat=src_alg.size):
                if naive.fuzzy_ok(labels, table, dict(zip(labels, mu))):
                    for dst_alg in le2:
                        cases += [(h, mu) for h in enumerate_homs(src_alg, dst_alg)]
    sampled = random.Random(6).sample(cases, 12)
    mono = 0
    for bound, batch in ((2, cases), (3, sampled)):
        flat = [p for k in range(1, bound + 1) for p in models[k]]
        probes = [naive.table_of(p) for p in flat]
        for h, mu in batch:
            src = FuzzyHyperBCK(h.source, mu)
            verdict = check_mono_equivalence(h, src, zero_mu(h.target), probe_size_bound=bound)
            source = naive.table_of(h.source)
            want = naive.fuzzy_mono_witness(
                probes,
                grid,
                source,
                dict(zip(source[0], mu)),
                {lab: h.target.carrier.labels[v] for lab, v in zip(source[0], h.mapping)},
            )
            assert verdict.fuzzy_mono == (want is None)
            if want is not None:
                p, q = verdict.fuzzy_witness
                assert (p.source, p.mapping, q.mapping) == (flat[want[0]], *want[2:])
            mono += verdict.fuzzy_mono
    assert len(cases) == 2 * 537 and 0 < mono < len(cases) + len(sampled)


# --- criterion 7: products -----------------------------------------------------


def test_c07_product_suite_as_stated(corpus2):
    start = time.perf_counter()
    small = list(enumerate_hyper_bck(1)) + list(corpus2)
    # validators and projections, over every fuzzy pair of size-2 members
    pairs = 0
    for a_alg in corpus2:
        for b_alg in corpus2:
            crisp = product([zero_mu(a_alg), zero_mu(b_alg)])
            assert validate_hyper_bck(crisp.object.alg).passed
            for fa in grid_assignments(a_alg):
                for fb in grid_assignments(b_alg):
                    result = product([fa, fb])
                    assert result.object.alg == crisp.object.alg
                    assert validate_fuzzy(result.object).passed
                    assert is_fuzzy_hom(result.legs["p0"], result.object, fa)
                    assert is_fuzzy_hom(result.legs["p1"], result.object, fb)
                    pairs += 1

    # mediating morphisms for every cone of homs out of a small peak
    # (the everywhere-zero membership makes every such cone a fuzzy cone)
    missing = []
    cones = 0
    for a_alg in corpus2:
        for b_alg in corpus2:
            result = product([zero_mu(a_alg), zero_mu(b_alg)])
            for w_alg in small:
                w = zero_mu(w_alg)
                for q1 in enumerate_homs(w_alg, a_alg):
                    for q2 in enumerate_homs(w_alg, b_alg):
                        cones += 1
                        try:
                            phi = mediate_product(result, w, [q1, q2])
                        except ClaimViolation:
                            missing.append((w_alg, a_alg, b_alg, q1, q2))
                            continue
                        matches = [
                            h
                            for h in enumerate_homs(w_alg, result.object.alg)
                            if h.then(result.legs["p0"]) == q1
                            and h.then(result.legs["p1"]) == q2
                        ]
                        assert matches == [phi]
    elapsed = time.perf_counter() - start
    detail = f"{pairs} fuzzy pairs, {cones} cones, {len(missing)} cones without mediator, {elapsed:.1f}s"
    if missing:
        w_alg, a_alg, _, q1, q2 = missing[0]
        detail += f"; first witness: cone maps {q1.mapping}/{q2.mapping} out of a size-{w_alg.size} peak"
    criterion(7, not missing, "products validate and every cone has a unique mediator", detail)


def test_c07_companion_mediator_exists_iff_tupling_is_hom(corpus2):
    # The projection equations force the mediator pointwise, so existence is
    # equivalent to that single map being a homomorphism; identity-style
    # cones over the 2-chain refute existence (frozen count below).
    c2 = chain_example(2)
    refuted = 0
    small = list(enumerate_hyper_bck(1)) + list(corpus2)
    for a_alg in corpus2.models[:6]:
        result = product([zero_mu(a_alg), zero_mu(a_alg)])
        for w_alg in small:
            w = zero_mu(w_alg)
            for q1 in enumerate_homs(w_alg, a_alg):
                for q2 in enumerate_homs(w_alg, a_alg):
                    tupling = Hom(
                        w_alg,
                        result.object.alg,
                        tuple(
                            q1.mapping[x] * a_alg.size + q2.mapping[x]
                            for x in range(w_alg.size)
                        ),
                    )
                    try:
                        phi = mediate_product(result, w, [q1, q2])
                        assert phi == tupling and is_hom(tupling)
                    except ClaimViolation:
                        refuted += 1
                        assert not is_hom(tupling)
    assert refuted > 0
    with pytest.raises(ClaimViolation):
        mediate_product(product([c2, c2]), c2, [Hom.identity(c2.alg)] * 2)


# --- criterion 8: equalizers and pullbacks ----------------------------------------


def _equalizer_universal(small):
    checked = 0
    for h_alg in small:
        src = zero_mu(h_alg)
        for f_alg in small:
            dst = zero_mu(f_alg)
            homs = enumerate_homs(h_alg, f_alg)
            for i, f in enumerate(homs):
                for g in homs[i:]:
                    eq = equalizer(f, g, src, dst)  # never fails at this size
                    include = eq.legs["include"]
                    for l_alg in small:
                        for h in enumerate_homs(l_alg, h_alg):
                            if h.then(f) != h.then(g):
                                continue
                            deltas = [
                                d
                                for d in enumerate_homs(l_alg, eq.object.alg)
                                if d.then(include) == h
                            ]
                            assert len(deltas) == 1
                            checked += 1
    return checked


def test_c08_equalizer_and_pullback_as_stated(corpus_le2):
    start = time.perf_counter()
    small = list(corpus_le2)
    factored = _equalizer_universal(small)

    unbuildable = []
    mediator_missing = []
    cones_checked = 0
    for a_alg in small:
        a = zero_mu(a_alg)
        for b_alg in small:
            b = zero_mu(b_alg)
            for c_alg in small:
                c = zero_mu(c_alg)
                for f in enumerate_homs(a_alg, c_alg):
                    for g in enumerate_homs(b_alg, c_alg):
                        try:
                            result = pullback(f, g, a, b, c)
                        except ClaimViolation as exc:
                            unbuildable.append((a_alg, b_alg, c_alg, f, g, exc.claim))
                            continue
                        to_a, to_b = result.legs["to_a"], result.legs["to_b"]
                        for w_alg in small:
                            for u in enumerate_homs(w_alg, a_alg):
                                for v in enumerate_homs(w_alg, b_alg):
                                    if u.then(f) != v.then(g):
                                        continue
                                    ws = [
                                        w
                                        for w in enumerate_homs(w_alg, result.object.alg)
                                        if w.then(to_a) == u and w.then(to_b) == v
                                    ]
                                    cones_checked += 1
                                    if len(ws) != 1:
                                        assert not ws  # never two: legs pin the map
                                        mediator_missing.append((w_alg, u, v, result))
    elapsed = time.perf_counter() - start
    detail = (
        f"{factored} equalizer factorizations, {cones_checked} pullback cones, "
        f"{len(unbuildable)} cospans without a subset-style pullback, "
        f"{len(mediator_missing)} cones without a mediator, {elapsed:.1f}s"
    )
    if unbuildable:
        a_alg, _, _, f, g, claim = unbuildable[0]
        detail += f"; e.g. identity-style cospan on a size-{a_alg.size} model ({claim})"
    criterion(
        8,
        not unbuildable and not mediator_missing,
        "equalizer and pullback universal properties",
        detail,
    )


def test_c08_companion_equalizers_always_close_at_size_two(corpus_le2):
    # For parallel pairs out of a source of size <= 2 the agreement set is
    # always closed (images of the zero cell pin the maps), so the equalizer
    # half of the criterion holds exhaustively.  Only pullbacks fail: via
    # non-closed agreement sets inside a product (the identity cospan over
    # the 2-chain), or via a cone whose forced map into a successfully
    # built pullback is not a homomorphism.  Counts frozen by enumeration.
    small = list(corpus_le2)
    unbuildable = total = 0
    for a_alg in small:
        for b_alg in small:
            for c_alg in small:
                for f in enumerate_homs(a_alg, c_alg):
                    for g in enumerate_homs(b_alg, c_alg):
                        total += 1
                        try:
                            pullback(f, g, zero_mu(a_alg), zero_mu(b_alg), zero_mu(c_alg))
                        except ClaimViolation:
                            unbuildable += 1
    assert total == 1546
    assert unbuildable == 10
    c2 = chain_example(2)
    with pytest.raises(ClaimViolation):
        pullback(Hom.identity(c2.alg), Hom.identity(c2.alg), c2, c2, c2)


# --- criterion 9: coequalizers -----------------------------------------------


def test_c09_coequalizer_suite(corpus_le2, corpus3_iso):
    # Exhaustive over sizes <= 2; seeded samples at size 3 (all 65M ordered
    # pairs of size-3 models are out of reach of the stated budget in any
    # implementation; the sample is deterministic and hom-rich).
    start = time.perf_counter()
    small = list(corpus_le2)
    violations = []
    factored = pairs_checked = 0

    def run_pair(f, g, src, dst, targets):
        nonlocal factored, pairs_checked
        pairs_checked += 1
        try:
            result = coequalizer(f, g, src, dst)
        except ClaimViolation as exc:
            violations.append((f, g, exc.claim))
            return
        project = result.legs["project"]
        assert f.then(project) == g.then(project)
        assert is_fuzzy_hom(project, dst, result.object)
        for l_alg, l_fuzzy in targets:
            for phi in enumerate_homs(dst.alg, l_alg):
                if f.then(phi) != g.then(phi) or not is_fuzzy_hom(phi, dst, l_fuzzy):
                    continue
                psi = mediate_coequalizer(result, l_fuzzy, phi)
                matches = [
                    h for h in enumerate_homs(result.object.alg, l_alg) if project.then(h) == phi
                ]
                assert matches == [psi]
                factored += 1

    for h_alg in small:
        src = zero_mu(h_alg)
        for k_alg in small:
            dst = zero_mu(k_alg)
            targets = [(l, zero_mu(l)) for l in small]
            homs = enumerate_homs(h_alg, k_alg)
            for i, f in enumerate(homs):
                for g in homs[i:]:
                    run_pair(f, g, src, dst, targets)

    # seeded size-3 samples: random ordered pairs, then the hom-rich
    # endomorphism pairs, with graded membership on the target
    rng = random.Random(818283)
    for _ in range(3000):
        h_alg = rng.choice(corpus3_iso.models)
        k_alg = rng.choice(corpus3_iso.models)
        homs = enumerate_homs(h_alg, k_alg)
        src = zero_mu(h_alg)
        dst = zero_mu(k_alg)
        targets = [(l, zero_mu(l)) for l in small]
        for i, f in enumerate(homs):
            for g in homs[i:]:
                run_pair(f, g, src, dst, targets)
    for k_alg in rng.sample(corpus3_iso.models, 800):
        endos = enumerate_homs(k_alg, k_alg)
        if len(endos) < 2:
            continue
        src = zero_mu(k_alg)
        for dst in grid_assignments(k_alg)[:2]:
            targets = [(l, zero_mu(l)) for l in small] + [(k_alg, dst)]
            for i, f in enumerate(endos):
                for g in endos[i + 1 :]:
                    run_pair(f, g, src, dst, targets)
    elapsed = time.perf_counter() - start
    criterion(
        9,
        not violations and elapsed < 600.0,
        "coequalizers: meet regular, projection coequalizes, unique factorization",
        f"{pairs_checked} parallel pairs, {factored} factorizations, "
        f"{len(violations)} claim violations, {elapsed:.1f}s",
    )


def test_c09_companion_coequalizers_into_six_element_products():
    # c09 reaches targets of at most three elements.  Here each target is a
    # seeded product of a size-2 and a size-3 model, and the parallel pairs
    # run into it from each factor and from the product itself.  E, the
    # equivalence the pairs (f(i), g(i)) generate, is built and tested for
    # regularity literally.  Every answer is the literal family-and-meet
    # over all 203 partitions; when E is regular it is E itself, and when
    # it is not, the walk over E's coarsenings (3 to 5 classes here) stays
    # inside the congruence bound, so no pair is refused.  Each product leg
    # that coequalizes the pair factors through the answer uniquely.
    # Counts frozen by the seed.
    models = {k: enumerate_hyper_bck(k, up_to_iso=True).models for k in (2, 3)}
    rng = random.Random(907)
    answered = refused = factored = 0
    walked = []  # the class counts of E where it is not regular
    for _ in range(16):
        factors = [zero_mu(rng.choice(models[2])), zero_mu(rng.choice(models[3]))]
        made = product(factors)
        dst = made.object
        labels, zero, table = naive.table_of(dst.alg)
        for src in (*factors, dst):
            homs = enumerate_homs(src.alg, dst.alg)
            for i, f in enumerate(homs):
                for g in homs[i + 1 :]:
                    pairs = [(labels[a], labels[b]) for a, b in zip(f.mapping, g.mapping)]
                    generated = naive.generated_blocks(labels, pairs)
                    try:
                        result = coequalizer(f, g, src, dst)
                    except InputError as refusal:
                        assert refusal.code == "too-large"
                        refused += 1
                        continue
                    blocks = set(result.congruence.label_blocks())
                    if naive.quotient_table(labels, zero, table, generated)[1]:
                        assert blocks == set(generated)
                    else:
                        walked.append(len(generated))
                    assert blocks == naive.coequalizer_blocks(labels, zero, table, pairs)
                    project = result.legs["project"]
                    assert f.then(project) == g.then(project)
                    for leg, factor in zip(made.legs.values(), factors):
                        if f.then(leg) == g.then(leg):
                            psi = mediate_coequalizer(result, factor, leg)
                            quotient_homs = enumerate_homs(result.object.alg, factor.alg)
                            assert [h for h in quotient_homs if project.then(h) == leg] == [psi]
                            factored += 1
                    answered += 1
    assert (answered, refused, factored) == (137, 0, 102)
    assert (len(walked), min(walked), max(walked)) == (13, 3, 5)


# --- criterion 10: which subalgebras are level sets -------------------------------


def test_c10_cut_claim_rate(corpus_le3):
    start = time.perf_counter()
    rng = random.Random(107)
    instances = holds = crosschecked = 0
    counterexample = None
    for alg, fuzzies in fuzzy_objects(corpus_le3):
        sub_masks = [
            m for m in range(1, alg.carrier.full_mask + 1) if alg.is_subalgebra_mask(m)
        ]
        for fz in fuzzies:
            cuts = set(cut_masks(fz))
            for mask in sub_masks:
                instances += 1
                is_cut = mask in cuts
                holds += is_cut
                if not is_cut and counterexample is None:
                    counterexample = (alg, fz, mask)
                if rng.random() < 0.001:
                    crosschecked += 1
                    labels = alg.carrier.labels_of(mask)
                    verdict = equals_some_alpha_cut(fz, labels)
                    assert verdict.is_cut == is_cut == verdict.claim_holds
                    if verdict.is_cut:
                        assert fz.alpha_cut_mask(verdict.alpha) == mask
    elapsed = time.perf_counter() - start
    assert counterexample is not None  # e.g. constant mu with a proper subalgebra
    assert crosschecked > 100
    criterion(
        10,
        True,
        "level-set claim rate recorded; verdicts internally consistent",
        f"claim holds on {holds}/{instances} subalgebra instances "
        f"({100.0 * holds / instances:.1f}%), {crosschecked} library cross-checks, {elapsed:.1f}s",
    )


# --- criterion 11: the worked chain ----------------------------------------------


def test_c11_chain_examples_as_stated(chains):
    start = time.perf_counter()
    failing = {}
    for k, chain in chains.items():
        crisp = validate_hyper_bck(chain.alg)
        fuzzy = validate_fuzzy(chain)
        if not (crisp.passed and fuzzy.passed):
            failing[k] = crisp.violations[0] if crisp.violations else fuzzy.violations[0]
    elapsed = time.perf_counter() - start
    detail = f"{elapsed * 1000:.0f}ms"
    if failing:
        ks = sorted(failing)
        detail += (
            f"; chains of length {ks} fail the first axiom, e.g. witness "
            f"{failing[ks[0]].witness} at length {ks[0]}"
        )
    criterion(
        11,
        not failing and elapsed < 1.0,
        "graded chains of length 1..6 pass both validators",
        detail,
    )


def test_c11_companion_chain_membership_holds_axioms_break(chains):
    # What actually holds: the membership inequality for every length, the
    # axioms only up to length 2, with the frozen first-axiom witness
    # (3,2,3) from length 3 on.
    for k, chain in chains.items():
        assert validate_fuzzy(chain).passed
        crisp = validate_hyper_bck(chain.alg)
        assert crisp.passed == (k <= 2)
        if k >= 3:
            assert ("3", "2", "3") in crisp.witnesses("HK1")
            assert not crisp.witnesses("HK2")
            assert not crisp.witnesses("HK3")


# --- criterion 12: round trips ----------------------------------------------------


def test_c12_format_round_trip(corpus_le3, chains):
    start = time.perf_counter()
    count = 0
    for alg in corpus_le3:
        assert parse_structure(render_structure(alg)) == alg
        count += 1
    rng = random.Random(121)
    for alg in rng.sample(list(corpus_le3), 300):
        fuzzies = grid_assignments(alg)
        if fuzzies:
            fz = fuzzies[rng.randrange(len(fuzzies))]
            assert parse_structure(render_structure(fz)) == fz
            assert parse_structure(render_structure(fz, pretty=True)) == fz
            count += 1
    for chain in chains.values():
        assert parse_structure(render_structure(chain)) == chain
        count += 1
    elapsed = time.perf_counter() - start
    criterion(12, True, "parse-render identity over the generated corpus", f"{count} documents, {elapsed:.1f}s")
