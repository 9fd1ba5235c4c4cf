"""Terminal object, products, equalizers, coequalizers, pullbacks."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

import naive_oracle as naive
from conftest import grid_assignments, zero_moved_to
from hyperbck import (
    Carrier,
    ClaimViolation,
    FuzzyHyperBCK,
    HyperBCK,
    InputError,
    trivial_algebra,
    validate_fuzzy,
    validate_hyper_bck,
)
from hyperbck import category
from hyperbck.category import (
    Congruence,
    coequalizer,
    enumerate_regular_congruences,
    equalizer,
    is_regular_congruence,
    mediate_coequalizer,
    mediate_product,
    partition_meet,
    product,
    pullback,
    quotient,
    terminal,
    terminal_map,
)
from hyperbck.corpus import chain_example
from hyperbck.morphisms import Hom, enumerate_homs, is_fuzzy_hom, is_hom


def zero_mu(alg: HyperBCK) -> FuzzyHyperBCK:
    return FuzzyHyperBCK(alg, (Fraction(0),) * alg.size)


# --- terminal object ---------------------------------------------------------


def test_terminal_validates():
    t = terminal()
    assert validate_hyper_bck(t.alg).passed
    assert validate_fuzzy(t).passed
    assert t.mu == (Fraction(0),)


def test_terminal_map_fuzzy_only_for_vanishing_mu(c2):
    tm = terminal_map(c2.alg)
    assert is_hom(tm)
    assert is_fuzzy_hom(tm, zero_mu(c2.alg), terminal())
    assert not is_fuzzy_hom(tm, c2, terminal())


# --- products ----------------------------------------------------------------


def test_product_of_two_chains(c2):
    result = product([c2, c2])
    obj = result.object
    assert obj.alg.carrier.labels == ("1|1", "1|2", "2|1", "2|2")
    assert obj.alg.star("2|2", "2|2") == {"1|1", "1|2", "2|1", "2|2"}
    assert obj.mu_of("2|1") == Fraction(1, 2)
    assert validate_hyper_bck(obj.alg).passed
    assert validate_fuzzy(obj).passed
    for name, factor in (("p0", c2), ("p1", c2)):
        assert is_fuzzy_hom(result.legs[name], obj, factor)


def test_unary_and_nullary_product(c2):
    assert product([c2]).object == c2
    with pytest.raises(InputError, match="terminal"):
        product([])


def test_product_of_trivials_is_trivial():
    t = terminal()
    obj = product([t, t]).object
    assert obj.alg.size == 1
    assert validate_fuzzy(obj).passed


def test_mediate_product_diagonal_is_a_claim_violation(c2):
    # The tupling forced by the identity cone is not a homomorphism:
    # its image of 2*2 is the diagonal, while the product cell is the
    # full square.  No mediating morphism exists for this cone.
    result = product([c2, c2])
    cone = [Hom.identity(c2.alg), Hom.identity(c2.alg)]
    with pytest.raises(ClaimViolation) as exc:
        mediate_product(result, c2, cone)
    assert exc.value.claim == "product-mediator-hom"


def test_mediate_product_working_cone(c2):
    w = zero_mu(c2.alg)
    factors = [zero_mu(c2.alg), zero_mu(c2.alg)]
    result = product(factors)
    collapse = Hom(c2.alg, c2.alg, (0, 0))
    cone = [Hom.identity(c2.alg), collapse]
    phi = mediate_product(result, w, cone)
    assert is_hom(phi)
    for i, q in enumerate(cone):
        assert phi.then(result.legs[f"p{i}"]) == q
    # unique among all homomorphisms satisfying the equations
    matches = [
        h
        for h in enumerate_homs(c2.alg, result.object.alg)
        if all(h.then(result.legs[f"p{i}"]) == q for i, q in enumerate(cone))
    ]
    assert matches == [phi]


def test_mediate_product_unary_identity_cone(c2):
    result = product([c2])
    phi = mediate_product(result, c2, [Hom.identity(c2.alg)])
    assert phi == Hom.identity(c2.alg)


def test_mediate_product_rejects_non_fuzzy_cone(c2):
    result = product([c2, c2])
    cone = [terminal_map(c2.alg), terminal_map(c2.alg)]
    with pytest.raises(InputError):
        mediate_product(result, c2, cone)


# --- equalizers ----------------------------------------------------------------


def test_equalizer_of_equal_maps_is_whole_source(c2):
    f = Hom.identity(c2.alg)
    eq = equalizer(f, f, c2, c2)
    assert eq.object == c2
    assert eq.legs["include"] == Hom.identity(c2.alg)


def test_equalizer_proper_agreement_set(c2):
    w = zero_mu(c2.alg)
    f = Hom.identity(c2.alg)
    g = Hom(c2.alg, c2.alg, (0, 0))
    eq = equalizer(f, g, w, w)
    assert eq.object.alg.carrier.labels == ("1",)
    include = eq.legs["include"]
    assert include.then(f) == include.then(g)
    # universal property: every equalizing map factors uniquely
    for probe in (trivial_algebra(), c2.alg):
        for h in enumerate_homs(probe, c2.alg):
            if h.then(f) != h.then(g):
                continue
            deltas = [
                d for d in enumerate_homs(probe, eq.object.alg) if d.then(include) == h
            ]
            assert len(deltas) == 1


def test_equalizer_fixed_point_sets_on_the_square(c2):
    # Fixed-point sets of endomorphisms of the square: most are closed and
    # give equalizers; the coordinate swap's fixed set is the diagonal,
    # which is not closed, and the construction says so with a witness.
    square = product([zero_mu(c2.alg), zero_mu(c2.alg)]).object
    ident = Hom.identity(square.alg)
    outcomes = {}
    for endo in enumerate_homs(square.alg, square.alg):
        if endo == ident:
            continue
        try:
            eq = equalizer(ident, endo, square, square)
            outcomes[endo.mapping] = eq.object.alg.carrier.labels
        except ClaimViolation as exc:
            outcomes[endo.mapping] = exc.claim
    assert outcomes[(0, 1, 0, 1)] == ("1|1", "1|2")
    assert outcomes[(0, 0, 2, 2)] == ("1|1", "2|1")
    assert outcomes[(0, 2, 1, 3)] == "equalizer-closed"  # the swap's diagonal


def test_equalizer_requires_parallel_fuzzy_pair(c2):
    f = Hom.identity(c2.alg)
    swap = Hom(c2.alg, c2.alg, (1, 0))
    with pytest.raises(InputError):
        equalizer(f, swap, c2, c2)  # swap is not a homomorphism
    with pytest.raises(InputError):
        equalizer(f, terminal_map(c2.alg), c2, c2)


def test_the_map_gate_codes_each_refusal_and_names_the_refused_map(c2):
    ident, swap = Hom.identity(c2.alg), Hom(c2.alg, c2.alg, (1, 0))
    to_zero = Hom(c2.alg, c2.alg, (0, 0))
    lowered = FuzzyHyperBCK(c2.alg, (Fraction(1, 2), Fraction(1)))  # to_zero lowers mu(2)
    product_of_two = product([c2, lowered])
    cases = [
        (lambda: equalizer(swap, ident, c2, c2), "not-hom", "f", "map is not a homomorphism"),
        (lambda: coequalizer(ident, swap, c2, c2), "not-hom", "g", "map is not a homomorphism"),
        (lambda: pullback(ident, terminal_map(c2.alg), c2, c2, c2), "endpoint-mismatch", "g",
         "map endpoints do not match the given fuzzy structures"),
        (lambda: equalizer(ident, to_zero, lowered, lowered), "not-fuzzy-hom", "g",
         "both maps must be fuzzy homomorphisms"),
        (lambda: pullback(to_zero, ident, lowered, lowered, lowered), "not-fuzzy-hom", "f",
         "cospan maps must be fuzzy homomorphisms"),
        (lambda: mediate_product(product_of_two, c2, [ident, ident]), "not-fuzzy-hom",
         "cone[1]", "cone legs must be fuzzy homomorphisms"),
    ]
    for build, code, location, message in cases:
        with pytest.raises(InputError) as refused:
            build()
        assert (refused.value.code, refused.value.location, str(refused.value)) == (
            code, location, message
        )


# --- congruences and quotients -------------------------------------------------


def test_congruence_partition_validation(c2):
    # the key constructor needs one key per element, and any hashable keys will do
    for keys in ((0,), ((0,), (1,), ()), "abc"):
        with pytest.raises(InputError, match="partition"):
            Congruence(c2.alg, keys)
    assert Congruence(c2.alg, "ba").blocks == Congruence(c2.alg, [(1, "x"), None]).blocks
    assert Congruence(c2.alg, iter([7, 7])).blocks == ((0, 1),)
    with pytest.raises(InputError, match="partition"):
        Congruence.from_blocks(c2.alg, [[0, 1], [1]])


@pytest.mark.parametrize(
    "blocks",
    [
        [[0, 1], []],  # an empty block
        [[0], [1], []],
        [[0], [1, 1]],  # a repeated index
        [[0], [1], [0]],
        [[0], [1, 2]],  # an out-of-range index
        [[0], [-1, 1]],
        [[0], [1, "x"]],  # a member that is not an int
        [[0], [1.0]],
        [[0], [True]],
        [[0], [[1]]],
        [[0]],  # an element left out
    ],
)
def test_from_blocks_refuses_what_does_not_partition_the_carrier(c2, blocks):
    with pytest.raises(InputError, match="blocks must partition the carrier"):
        Congruence.from_blocks(c2.alg, blocks)


def test_a_congruence_is_canonical_as_built(c2):
    # blocks come in order of first appearance: sorted, and ordered by least element
    alg = product([zero_mu(c2.alg), zero_mu(c2.alg)]).object.alg
    for keys in ("baab", "abba", [3, 1, 1, 3], [(0,), (), (), (0,)]):
        cong = Congruence(alg, keys)
        assert cong.blocks == ((0, 3), (1, 2))
        assert [cong.block_of(i) for i in range(4)] == [0, 1, 1, 0]
        assert cong == Congruence.from_blocks(alg, [[2, 1], [3, 0]])


def test_block_of_reads_the_partition_and_refuses_out_of_range(c2):
    cong = Congruence.from_blocks(c2.alg, [[1], [0]])
    assert [cong.block_of(i) for i in range(2)] == [0, 1]
    for bad in (-1, 2):
        with pytest.raises(InputError, match="out of range"):
            cong.block_of(bad)


def test_regular_congruences_of_zero_table_algebra():
    cells = {(x, y): ["O"] for x in "Oa" for y in "Oa"}
    alg = HyperBCK.from_sets(["O", "a"], "O", cells)
    assert validate_hyper_bck(alg).passed
    regs = enumerate_regular_congruences(alg)
    assert [c.blocks for c in regs] == [((0, 1),), ((0,), (1,))]
    q_alg, project = quotient(regs[1])
    assert q_alg.carrier.labels == ("[O]", "[a]")
    assert is_hom(project)


def test_chain3_regular_congruence_count_frozen():
    # The 3-chain itself violates the axioms, so the only partition with a
    # law-abiding quotient is the total one (frozen enumeration result).
    c3 = chain_example(3)
    regs = enumerate_regular_congruences(c3.alg)
    assert len(regs) == 1
    assert regs[0].blocks == ((0, 1, 2),)


def test_non_regular_congruence_detected(c2):
    # merging the chain's two elements forces representative-dependence on
    # a*b cells elsewhere in larger chains; here build a direct example
    c3 = chain_example(3)
    merged = Congruence.from_blocks(c3.alg, [[0, 1], [2]])
    assert not is_regular_congruence(merged)
    with pytest.raises(InputError, match="not regular"):
        quotient(merged)


def test_congruence_bound_refusal():
    c6 = chain_example(6)
    with pytest.raises(InputError, match="bound"):
        enumerate_regular_congruences(c6.alg)


def test_partition_meet_is_common_refinement():
    cells = {(x, y): ["O"] for x in "Oab" for y in "Oab"}
    alg = HyperBCK.from_sets(["O", "a", "b"], "O", cells)
    c1 = Congruence.from_blocks(alg, [[0, 1], [2]])
    c2_ = Congruence.from_blocks(alg, [[0, 2], [1]])
    meet = partition_meet([c1, c2_])
    assert meet.blocks == ((0,), (1,), (2,))
    for i in range(3):
        for j in range(3):
            assert meet.relates(i, j) == (c1.relates(i, j) and c2_.relates(i, j))


def test_partition_meet_refuses_congruences_on_different_algebras(c2):
    c3 = chain_example(3)
    on_c2 = Congruence.from_blocks(c2.alg, [[0], [1]])
    on_c3 = Congruence.from_blocks(c3.alg, [[0, 1, 2]])
    for family in ([on_c2, on_c3], [on_c3, on_c2]):
        with pytest.raises(InputError, match="one algebra"):
            partition_meet(family)
    # an equal algebra built apart is the same algebra
    twin = Congruence.from_blocks(chain_example(2).alg, [[0, 1]])
    assert partition_meet([on_c2, twin]).blocks == ((0,), (1,))


def partition_carriers(corpus2, corpus3) -> list[HyperBCK]:
    """A 4-element product and a 5-element subalgebra of a 3 x 2 product, as the quotient
    oracle builds them, each also with its zero moved."""
    four = product([zero_mu(corpus2.models[0]), zero_mu(corpus2.models[1])]).object.alg
    rng = random.Random(21)
    while True:
        whole = product([zero_mu(rng.choice(corpus3.models)), zero_mu(rng.choice(corpus2.models))])
        alg = whole.object.alg
        fives = [k for k in range(1, 1 << alg.size) if k.bit_count() == 5]
        fives = [alg.restrict_mask(k) for k in fives if alg.is_subalgebra_mask(k)]
        if fives:
            break
    return [four, fives[0], zero_moved_to(four, 3), zero_moved_to(fives[0], 2)]


def test_partition_by_matches_literal_partitions(corpus2, corpus3):
    rng = random.Random(26)
    for alg in partition_carriers(corpus2, corpus3):
        labels = alg.carrier.labels
        parts = naive.partitions(labels)
        assert len(parts) == {4: 15, 5: 52}[alg.size]
        built = []
        for blocks in parts:
            expected = frozenset(blocks)
            block_of = {x: b for b, block in enumerate(blocks) for x in block}
            keys = [block_of[x] for x in labels]  # block numbers in the oracle's order
            names = [f"k{b}" for b in rng.sample(range(100), len(blocks))]
            for key_vector in (keys, [names[k] for k in keys], [(-k, "x") for k in keys]):
                cong = Congruence(alg, key_vector)
                assert cong.base is alg
                assert frozenset(cong.label_blocks()) == expected
                for i, k in enumerate(key_vector):
                    for j, m in enumerate(key_vector):
                        assert cong.relates(i, j) == (k == m)
            built.append(cong)
        assert len({c.blocks for c in built}) == len(parts)
        # the meet relates exactly what both members relate
        for a, b in zip(built, rng.sample(built, len(built))):
            meet = partition_meet([a, b])
            for i in range(alg.size):
                for j in range(alg.size):
                    assert meet.relates(i, j) == (a.relates(i, j) and b.relates(i, j))


def test_generated_congruence_is_the_least_equivalence_relating_the_pairs(corpus2, corpus3):
    rng = random.Random(2026)
    for alg in partition_carriers(corpus2, corpus3):
        labels = alg.carrier.labels
        parts = naive.partitions(labels)
        for _ in range(60):
            count = rng.randrange(5)
            pairs = [(rng.randrange(alg.size), rng.randrange(alg.size)) for _ in range(count)]
            relating = [
                blocks for blocks in parts
                if all(any({labels[a], labels[b]} <= blk for blk in blocks) for a, b in pairs)
            ]
            finest = max(relating, key=len)  # the least equivalence has the most blocks
            cong = category._generated_congruence(alg, pairs)
            assert frozenset(cong.label_blocks()) == frozenset(finest)


def walk_carriers(corpus2, corpus3) -> list[HyperBCK]:
    """Seeded 4- and 6-element products, 5- and 6-element subalgebras of 3 x 3 products, and
    each of them with its zero moved."""
    rng = random.Random(27)
    two, three = corpus2.models, corpus3.models
    carriers = [product([zero_mu(rng.choice(two)), zero_mu(rng.choice(two))]).object.alg]
    carriers += [product([zero_mu(rng.choice(two)), zero_mu(rng.choice(three))]).object.alg]
    carriers += [product([zero_mu(rng.choice(three)), zero_mu(rng.choice(two))]).object.alg]
    for size in (5, 6):
        while len(carriers) < size - 1:
            whole = product([zero_mu(rng.choice(three)), zero_mu(rng.choice(three))]).object.alg
            masks = [k for k in range(1, 1 << 9) if k.bit_count() == size]
            subs = [whole.restrict_mask(k) for k in masks if whole.is_subalgebra_mask(k)]
            carriers += rng.sample(subs, 1) if subs else []
    return carriers + [zero_moved_to(alg, rng.randrange(1, alg.size)) for alg in carriers]


def test_the_coarsening_walk_lists_the_literal_regular_coarsenings(corpus2, corpus3):
    # For seeded E of at most five classes, the walk's regular coarsenings are the oracle's
    # partitions that contain E and have a regular quotient, in lexicographic order of the
    # block numbers they give E's classes (taken by least element).
    rng = random.Random(2027)
    carriers = walk_carriers(corpus2, corpus3)
    assert [alg.size for alg in carriers] == [4, 6, 6, 5, 6] * 2
    lengths = set()
    for alg in carriers:
        labels, zero, table = naive.table_of(alg)
        parts = naive.partitions(labels)
        regular = [b for b in parts if naive.quotient_table(labels, zero, table, b)[1]]
        for _ in range(8):
            keys = [rng.randrange(rng.randrange(1, 6)) for _ in labels]
            classes = []  # E's classes, by least element
            for key in keys:
                members = frozenset(x for x, k in zip(labels, keys) if k == key)
                if members not in classes:
                    classes.append(members)

            def string(blocks):
                numbers = {}
                return [
                    numbers.setdefault(next(b for b in blocks if c <= b), len(numbers))
                    for c in classes
                ]

            family = [b for b in regular if all(any(c <= block for block in b) for c in classes)]
            family.sort(key=string)
            walked = category._regular_coarsenings(alg, Congruence(alg, keys)._to_block)
            assert [frozenset(c.label_blocks()) for c in walked] == [frozenset(b) for b in family]
            assert all(cong.base is alg for cong in walked)
            lengths.add((len(classes), len(walked)))
    assert len(lengths) > 10


def test_coequalizers_past_the_bound_name_the_classes_of_e(corpus2, corpus3_iso):
    # Size-3 sources into 2 x 2 x 2 products: two elements of the source give at most two
    # pairs besides the zeros', so E keeps at least six of the eight elements apart.  A
    # regular E is still the answer; one that is not leaves a walk over 7 classes, refused.
    rng = random.Random(271)
    answered = refused = 0
    seen = set()  # the class counts of the refused E
    for _ in range(800):  # the seed needs 697 draws: a broken kernel fails here, not hangs
        if refused >= 3 and answered >= 3:
            break
        factors = [zero_mu(rng.choice(corpus2.models)) for _ in range(3)]
        dst = product(factors).object
        src = zero_mu(rng.choice(corpus3_iso.models))
        labels = dst.alg.carrier.labels
        homs = enumerate_homs(src.alg, dst.alg)
        for i, f in enumerate(homs):
            for g in homs[i + 1 :]:
                pairs = [(labels[a], labels[b]) for a, b in zip(f.mapping, g.mapping)]
                classes = len(naive.generated_blocks(labels, pairs))
                try:
                    result = coequalizer(f, g, src, dst)
                except InputError as exc:
                    assert (exc.code, exc.location) == ("too-large", "carrier")
                    assert str(exc).startswith(f"{classes} classes exceed the congruence")
                    seen.add(classes)
                    refused += 1
                    continue
                assert len(result.congruence.blocks) == classes
                answered += 1
    assert (answered, refused, seen) == (3, 10, {7})  # frozen by the seed


# --- coequalizers ----------------------------------------------------------------


def test_coequalizer_of_equal_maps_is_identity_up_to_relabeling(c2):
    f = Hom.identity(c2.alg)
    result = coequalizer(f, f, c2, c2)
    assert result.congruence.blocks == ((0,), (1,))
    assert result.object.alg.carrier.labels == ("[1]", "[2]")
    assert result.object.mu == c2.mu
    assert result.legs["project"].is_bijective()


def test_coequalizer_collapsing_pair(c2):
    w = zero_mu(c2.alg)
    f = Hom.identity(c2.alg)
    g = Hom(c2.alg, c2.alg, (0, 0))
    result = coequalizer(f, g, w, w)
    assert result.congruence.blocks == ((0, 1),)
    assert result.object.alg.size == 1
    project = result.legs["project"]
    assert f.then(project) == g.then(project)


def test_coequalizer_quotient_mu_is_blockwise_max(c2):
    f = Hom.identity(c2.alg)
    g = Hom(c2.alg, c2.alg, (0, 0))
    host = FuzzyHyperBCK(c2.alg, (Fraction(1), Fraction(1, 2)))
    result = coequalizer(f, g, host, host)
    assert result.object.mu == (Fraction(1),)  # max over the merged block
    assert is_fuzzy_hom(result.legs["project"], host, result.object)


def test_mediate_coequalizer(c2):
    w = zero_mu(c2.alg)
    f = Hom.identity(c2.alg)
    g = Hom(c2.alg, c2.alg, (0, 0))
    result = coequalizer(f, g, w, w)
    project = result.legs["project"]

    psi = mediate_coequalizer(result, result.object, project)
    assert psi == Hom.identity(result.object.alg)

    phi = terminal_map(c2.alg)
    psi2 = mediate_coequalizer(result, terminal(), phi)
    assert project.then(psi2) == phi

    with pytest.raises(InputError, match="coequalize"):
        mediate_coequalizer(result, w, Hom.identity(c2.alg))


def test_a_map_into_a_table_that_fails_the_axioms_need_not_factor_through_the_coequalizer():
    # ``coequalizer-factors`` is the one mediator claim that stays: no construction checks that
    # its target satisfies the axioms, and the kernel of a hom into one that does is a regular
    # congruence containing E, so only such a target can separate a block.  Here the zero map
    # out of the one-element algebra is paired with itself, so E is discrete; over a table that
    # fails the axioms its quotient is the table again, not regular, and the meet is the total
    # congruence, whose one block the identity separates.  Of the 27 2-element tables with
    # O*O = {O}, exactly the 20 that fail the axioms refuse the identity this way.
    refused = []
    for cells in itertools.product((1, 2, 3), repeat=3):
        alg = HyperBCK(Carrier(("O", "a"), 0), (1, *cells))
        zero = Hom(trivial_algebra(), alg, (0,))
        result = coequalizer(zero, zero, zero_mu(trivial_algebra()), zero_mu(alg))
        try:
            mediate_coequalizer(result, zero_mu(alg), Hom.identity(alg))
        except ClaimViolation as exc:
            assert (exc.claim, exc.witness) == ("coequalizer-factors", ("O", "a"))
            assert result.congruence.blocks == ((0, 1),)
            refused.append(alg)
    failing = [alg for alg in refused if not validate_hyper_bck(alg).passed]
    assert len(refused) == len(failing) == 20
    # the instance named in the docs: O*a = a*O = {O} and a*a = {a}
    assert HyperBCK(Carrier(("O", "a"), 0), (1, 1, 1, 2)) in refused


def test_coequalizers_match_the_literal_family_and_meet(corpus_le2, corpus3_iso):
    # Every parallel pair f != g between algebras of at most three elements (one per relabeling
    # class at three) whose source has at most two elements or is the target itself: all 65M
    # ordered pairs of size-3 algebras are out of reach.  E is the meet in 3,093 of the 3,960.
    small = list(corpus_le2)
    spans = [(h, k) for k in small for h in small]
    spans += [(h, k) for k in corpus3_iso.models for h in (*small, k)]
    checked = fast = 0
    for h, k in spans:
        homs = enumerate_homs(h, k)
        labels, zero, table = naive.table_of(k)
        for i, f in enumerate(homs):
            for g in homs[i + 1 :]:
                pairs = [(labels[a], labels[b]) for a, b in zip(f.mapping, g.mapping)]
                result = coequalizer(f, g, zero_mu(h), zero_mu(k))
                blocks = set(result.congruence.label_blocks())
                assert blocks == naive.coequalizer_blocks(labels, zero, table, pairs)
                fast += blocks == set(naive.generated_blocks(labels, pairs))
                checked += 1
    assert (checked, fast) == (3960, 3093)


def test_a_coequalizing_family_without_a_least_member_is_a_claim_violation():
    # Into a 6-element product, the zero map and a |-> a|O generate E, which merges O|O with a|O
    # only.  E is not regular, and two of its nine regular coarsenings meet in E again, so the
    # family has no least member: the construction fails, and the oracle agrees.
    cells = {(x, y): ["O", "a"] if (x, y) == ("a", "a") else ["O"] for x in "Oa" for y in "Oa"}
    two = HyperBCK.from_sets(["O", "a"], "O", cells)
    cells = {(x, y): ["O", "a"] if x + y in ("bO", "ba") else ["O"] for x in "Oab" for y in "Oab"}
    three = HyperBCK.from_sets(["O", "a", "b"], "O", cells)
    assert validate_hyper_bck(two).passed and validate_hyper_bck(three).passed
    dst = product([zero_mu(two), zero_mu(three)]).object
    f = Hom.from_labels(two, dst.alg, {"O": "O|O", "a": "O|O"})
    g = Hom.from_labels(two, dst.alg, {"O": "O|O", "a": "a|O"})
    with pytest.raises(ClaimViolation) as exc:
        coequalizer(f, g, zero_mu(two), dst)
    assert exc.value.claim == "congruence-meet-regular"
    e = {frozenset({"O|O", "a|O"}), *(frozenset({x}) for x in ("O|a", "O|b", "a|a", "a|b"))}
    assert set(exc.value.witness) == e
    labels, zero, table = naive.table_of(dst.alg)
    family = [
        blocks for blocks in naive.partitions(labels)
        if all(any(c <= b for b in blocks) for c in e)
        and naive.quotient_table(labels, zero, table, blocks)[1]
    ]
    assert len(family) == 9 and e not in map(set, family)
    assert naive.coequalizer_blocks(labels, zero, table, [("O|O", "a|O")]) == e


# --- pullbacks ----------------------------------------------------------------


def test_pullback_to_terminal_is_whole_product(c2):
    a = zero_mu(c2.alg)
    t = terminal()
    f = terminal_map(c2.alg)
    result = pullback(f, f, a, a, t)
    assert result.object.alg.size == 4
    assert result.legs["to_a"].then(f) == result.legs["to_b"].then(f)


def test_pullback_of_identity_cospan_fails_closure(c2):
    # The agreement set of the two projection composites is the diagonal,
    # which is not closed under the componentwise product cell of (2,2):
    # a concrete refutation of the subset-style pullback construction.
    ident = Hom.identity(c2.alg)
    with pytest.raises(ClaimViolation) as exc:
        pullback(ident, ident, c2, c2, c2)
    assert exc.value.claim == "equalizer-closed"


def test_pullback_of_identity_cospan_on_trivial():
    t = terminal()
    ident = Hom.identity(t.alg)
    result = pullback(ident, ident, t, t, t)
    assert result.object.alg.size == 1


# --- cells against the literal oracle ------------------------------------------


def with_zero_moved(models):
    """The models, then each of size 2 with its zero moved to index 1."""
    return list(models) + [zero_moved_to(alg, 1) for alg in models if alg.size == 2]


def graded_mu(alg: HyperBCK) -> FuzzyHyperBCK:
    n = alg.size
    return FuzzyHyperBCK(alg, tuple(Fraction(n - i, n) for i in range(n)))


def assert_product_matches_oracle(algs):
    result = product([graded_mu(a) for a in algs])
    got = result.object
    elements, zero, cells = naive.product_cells([naive.table_of(a) for a in algs])
    name = "|".join
    assert got.alg.carrier.labels == tuple(name(t) for t in elements)
    assert got.alg.carrier.zero_label == name(zero)
    assert naive.table_of(got.alg)[2] == {
        (name(x), name(y)): frozenset(name(t) for t in c) for (x, y), c in cells.items()
    }
    for t in elements:
        degrees = [graded_mu(a).mu_of(c) for a, c in zip(algs, t)]
        assert got.mu_of(name(t)) == min(degrees)
    for i in range(len(algs)):
        assert result.legs[f"p{i}"].as_label_map() == {name(t): t[i] for t in elements}


def test_product_cells_match_literal_oracle(corpus_le2):
    models = with_zero_moved(corpus_le2)
    for a in models:
        for b in models:
            assert_product_matches_oracle([a, b])
    # a ternary product, on eight elements
    assert_product_matches_oracle([models[1], zero_moved_to(models[5], 1), models[12]])


def test_quotients_match_literal_oracle(corpus_le2, corpus2, corpus3):
    # Past three elements: the 4-element products of two size-2 models, and the 5-element
    # subalgebras of seeded 3 x 2 products, where the walk lists 15 and 52 partitions.
    rng = random.Random(21)
    larger = [product([zero_mu(a), zero_mu(b)]).object.alg for a in corpus2 for b in corpus2]
    for _ in range(30):
        whole = product([zero_mu(rng.choice(corpus3.models)), zero_mu(rng.choice(corpus2.models))])
        alg = whole.object.alg
        masks = [k for k in range(1, 1 << alg.size) if k.bit_count() == 5]
        larger += [alg.restrict_mask(k) for k in masks if alg.is_subalgebra_mask(k)]
    assert len(larger) == 144 + 14  # frozen for seed 21
    larger += [zero_moved_to(alg, rng.randrange(1, alg.size)) for alg in larger]
    sample = random.Random(3).sample(corpus3.models, 300)
    for alg in with_zero_moved(corpus_le2) + sample + larger:
        labels, zero, table = naive.table_of(alg)
        regular = set()
        for blocks in naive.partitions(labels):
            cong = Congruence.from_blocks(alg, [[labels.index(x) for x in b] for b in blocks])
            cells, is_regular = naive.quotient_table(labels, zero, table, blocks)
            assert is_regular_congruence(cong) == is_regular
            if is_regular:
                regular.add(frozenset(blocks))
            if cells is None:
                with pytest.raises(InputError, match="not regular"):
                    quotient(cong)
                continue
            q_alg, project = quotient(cong)
            block = dict(zip(q_alg.carrier.labels, cong.label_blocks()))
            _, q_zero, q_table = naive.table_of(q_alg)
            assert zero in block[q_zero]
            assert {
                (block[x], block[y]): frozenset(block[t] for t in c)
                for (x, y), c in q_table.items()
            } == cells
            assert all(x in block[v] for x, v in project.as_label_map().items())
        congs = enumerate_regular_congruences(alg)
        assert {frozenset(c.label_blocks()) for c in congs} == regular
        rgs = [tuple(map(c.block_of, range(alg.size))) for c in congs]
        assert rgs == sorted(rgs)  # restricted growth strings, in lexicographic order


def test_products_past_the_bound_are_refused_unbuilt():
    from hyperbck.category import PRODUCT_BOUND

    c9 = chain_example(9)
    start = time.perf_counter()
    with pytest.raises(InputError) as exc:
        product([c9, c9, c9])
    assert time.perf_counter() - start < 1.0
    assert (exc.value.code, exc.value.location) == ("too-large", "carrier")
    assert "729" in str(exc.value)
    c16 = chain_example(16)
    assert len(product([c16, c16]).object.alg.carrier) == PRODUCT_BOUND


def test_products_over_grid_memberships_match_the_literal_product(corpus_le2):
    models = with_zero_moved(corpus_le2)
    rng = random.Random(14)
    name = "|".join
    for a in models:
        for b in models:
            elements, zero, cells = naive.product_cells([naive.table_of(a), naive.table_of(b)])
            crisp = None
            for _ in range(4):
                fa, fb = rng.choice(grid_assignments(a)), rng.choice(grid_assignments(b))
                got = product([fa, fb]).object
                crisp = crisp or got.alg
                assert got.alg is crisp  # one crisp product per factor tuple
                assert got.alg.carrier.labels == tuple(name(t) for t in elements)
                assert got.alg.carrier.zero_label == name(zero)
                assert naive.table_of(got.alg)[2] == {
                    (name(x), name(y)): frozenset(name(t) for t in c) for (x, y), c in cells.items()
                }
                degrees = {name((x, y)): min(fa.mu_of(x), fb.mu_of(y)) for x, y in elements}
                assert dict(zip(got.alg.carrier.labels, got.mu)) == degrees


def test_product_degrees_are_the_objects_min_picks(corpus_le2):
    # The third factor repeats the first with equal degrees held by other Fraction
    # objects, so ties are common: min keeps the first least degree, and so must product.
    rng = random.Random(22)
    for a in corpus_le2:
        for b in corpus_le2:
            fa, fb = rng.choice(grid_assignments(a)), rng.choice(grid_assignments(b))
            copy = FuzzyHyperBCK(a, tuple(Fraction(v.numerator, v.denominator) for v in fa.mu))
            assert all(v == w and v is not w for v, w in zip(fa.mu, copy.mu))
            factors = [fa, fb, copy]
            result = product(factors)
            legs = result.legs.values()
            columns = zip(*(map(f.mu.__getitem__, leg.mapping) for f, leg in zip(factors, legs)))
            want = [min(column) for column in columns]
            assert len(result.object.mu) == len(want)
            assert all(got is w for got, w in zip(result.object.mu, want))


def test_derived_values_equal_what_the_public_constructors_build(corpus_le2):
    rng = random.Random(7)
    for a in corpus_le2:
        for b in corpus_le2:
            fa, fb = rng.choice(grid_assignments(a)), rng.choice(grid_assignments(b))
            result = product([fa, fb])
            got = result.object
            built = FuzzyHyperBCK(got.alg, got.mu)
            assert got == built and hash(got) == hash(built) and repr(got) == repr(built)
            assert all(type(v) is Fraction for v in got.mu)
            assert got._ranks() == built._ranks()
            for h in enumerate_homs(a, got.alg):
                for name, leg in result.legs.items():
                    composite = h.then(leg)
                    literal = tuple(leg.mapping[v] for v in h.mapping)
                    assert composite == Hom(a, leg.target, literal)
                    assert type(composite.mapping) is tuple


def test_the_crisp_part_is_built_once_per_factor_tuple_and_the_degrees_every_call(
    monkeypatch, c2
):
    builds, degrees = [], []
    store, least = category._crisp_product, category._least
    make = store.make
    monkeypatch.setattr(store, "make", lambda algs: builds.append(algs) or make(algs))
    monkeypatch.setattr(category, "_least", lambda column: degrees.append(column) or least(column))
    store.clear()
    factors = [c2, FuzzyHyperBCK(c2.alg, (Fraction(1), Fraction(1, 4)))]
    first, second = product(factors), product(factors[::-1])
    assert first.object.alg is second.object.alg and first.object != second.object
    assert builds == [(c2.alg, c2.alg)] and len(degrees) == 2 * 4
    assert list(store) == [(c2.alg, c2.alg)] and store.limit // store.least == 256


def test_crisp_products_held_stay_under_their_cell_bound():
    # A product at PRODUCT_BOUND holds its square of cells; the bound keeps four of them.
    from hyperbck.category import PRODUCT_BOUND, PRODUCT_CELLS_KEPT

    cells = PRODUCT_BOUND**2
    assert 4 * cells <= PRODUCT_CELLS_KEPT < 5 * cells
    c16 = chain_example(16).alg
    chains = [c16, *(zero_moved_to(c16, k) for k in (1, 2))]
    factors = [[zero_mu(a), zero_mu(b)] for a in chains for b in chains[:2]]
    store = category._crisp_product
    store.clear()
    held = []
    try:
        for pair in factors:
            alg = product(pair).object.alg
            assert product(pair).object.alg is alg  # the newest is kept
            assert store.held == len(store) * cells <= PRODUCT_CELLS_KEPT
            held.append(store.held)
    finally:
        store.clear()
    assert max(held) == PRODUCT_CELLS_KEPT and len(factors) * cells > PRODUCT_CELLS_KEPT
