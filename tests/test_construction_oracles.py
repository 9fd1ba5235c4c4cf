"""Every construction's legs and mediators against literal oracles that share no code with the
library.

The constructions build their legs and mediators proved, with no runtime check, since each
guarantee holds by construction; these tests are where the guarantees are checked.  Each
expectation is spelled out on label tables by ``naive_oracle``: an equalizer's object is the
agreement set's restricted table exactly when that set is a subalgebra (``equalizer-closed``
otherwise), a pullback's is the literal subset {(a, b) : f(a) = g(b)} of the product cells, and
every returned leg and mediator is a literal hom that lowers no membership, by a ``Fraction``
comparison, and satisfies its equations.

The inputs are every parallel pair and cospan of algebras of at most two elements, and seeded
homs out of 4-, 6- and 9-element products and out of 6- and 8-element subalgebras of products,
zero moved or not.  Memberships are seeded GRID degrees, bounded where a map must be a fuzzy
hom; the constructions assume no membership inequality, so none is imposed.
"""

from __future__ import annotations

import itertools
import random

import naive_oracle as naive
from conftest import GRID, zero_moved_to, zero_mu
from hyperbck import ClaimViolation, FuzzyHyperBCK
from hyperbck.category import (
    coequalizer,
    equalizer,
    mediate_coequalizer,
    mediate_product,
    product,
    pullback,
)
from hyperbck.morphisms import enumerate_homs

name = "|".join  # a product element's label: its components' labels, joined


def literal(fz: FuzzyHyperBCK):
    """(labels, zero, cells, degrees) of a structure, read through its labels."""
    labels, zero, table = naive.table_of(fz.alg)
    return labels, zero, table, dict(zip(labels, fz.mu))


def label_map(h) -> dict[str, str]:
    targets = h.target.carrier.labels
    return {x: targets[v] for x, v in zip(h.source.carrier.labels, h.mapping)}


def then(first: dict, second: dict) -> dict:
    return {x: second[y] for x, y in first.items()}


def outcome(build) -> tuple:
    """``(None, build())``, or the claim ``build()`` raises and its witness."""
    try:
        return None, build()
    except ClaimViolation as exc:
        return exc.claim, exc.witness


def assert_fuzzy_hom(h, src: FuzzyHyperBCK, dst: FuzzyHyperBCK) -> dict[str, str]:
    """``h`` runs from ``src`` to ``dst``, is a hom by the literal equation, and lowers no
    membership; returns its label map."""
    labels, zero, table, mu = literal(src)
    _, dst_zero, dst_table, dst_mu = literal(dst)
    assert (h.source, h.target) == (src.alg, dst.alg)
    mapping = label_map(h)
    assert naive.is_hom(table, zero, labels, dst_table, dst_zero, mapping)
    assert all(dst_mu[mapping[x]] >= mu[x] for x in labels)
    return mapping


def degrees(rng, alg, low=None, high=None) -> FuzzyHyperBCK:
    """Seeded GRID degrees on ``alg``, element i's between ``low[i]`` and ``high[i]`` if given."""
    low = low or [GRID[0]] * alg.size
    high = high or [GRID[-1]] * alg.size
    values = (rng.choice([v for v in GRID if a <= v <= b]) for a, b in zip(low, high))
    return FuzzyHyperBCK(alg, tuple(values))


def below(rng, alg, *maps_into: tuple) -> FuzzyHyperBCK:
    """Degrees on ``alg`` under which each ``(h, dst)`` of ``maps_into`` is a fuzzy hom."""
    high = [min(dst.mu[h.mapping[i]] for h, dst in maps_into) for i in range(alg.size)]
    return degrees(rng, alg, high=high)


def above(rng, alg, h, src: FuzzyHyperBCK) -> FuzzyHyperBCK:
    """Degrees on ``alg`` under which ``h`` out of ``src`` is a fuzzy hom."""
    low = [GRID[0]] * alg.size
    for i, v in enumerate(h.mapping):
        low[v] = max(low[v], src.mu[i])
    return degrees(rng, alg, low=low)


def small_algebras(corpus_le2) -> list:
    """The algebras of at most two elements, then those of two with the zero moved."""
    return list(corpus_le2) + [zero_moved_to(alg, 1) for alg in corpus_le2 if alg.size == 2]


def large_sources(small, product_pairs, subalgebra_pairs) -> list:
    """(source, target) pairs out of 4-, 6- and 9-element products and 6- and 8-element
    subalgebras of products, zero moved or not, then each such source with itself, or past
    six elements (where its maps are too many to walk) with three 2-element algebras; each
    with its hom-set where that is not empty."""
    pairs = product_pairs + subalgebra_pairs
    pairs += [(src, src) for src, _ in pairs if src.size <= 6]
    pairs += [(src, dst) for src, _ in pairs if src.size > 6 for dst in small[1:4]]
    homs = {pair: enumerate_homs(*pair) for pair in pairs}
    return [(src, dst, found) for (src, dst), found in homs.items() if found]


def parallel_pairs(small, large) -> list:
    """Every parallel pair f, g (f before or equal to g in the hom-set) between the small
    algebras; then two seeded homs out of each large source; then the two projections of
    A x A for each small A, which agree on the diagonal, often not closed."""
    rng = random.Random(31)
    pairs = []
    for src in small:
        for dst in small:
            homs = enumerate_homs(src, dst)
            pairs += [(f, g) for i, f in enumerate(homs) for g in homs[i:]]
    pairs += [(rng.choice(homs), rng.choice(homs)) for _, _, homs in large]
    pairs += [tuple(product([zero_mu(a), zero_mu(a)]).legs.values()) for a in small]
    return pairs


def test_equalizers_are_the_literal_agreement_subalgebra(
    corpus_le2, product_pairs, subalgebra_pairs
):
    small = small_algebras(corpus_le2)
    rng = random.Random(32)
    outcomes = []
    for f, g in parallel_pairs(small, large_sources(small, product_pairs, subalgebra_pairs)):
        dst = degrees(rng, f.target)
        src = below(rng, f.source, (f, dst), (g, dst))
        labels, zero, table, mu = literal(src)
        fmap, gmap = label_map(f), label_map(g)
        agree = frozenset(x for x in labels if fmap[x] == gmap[x])
        closed = naive.is_subalgebra(table, zero, agree)
        outcomes.append(closed)
        claim, got = outcome(lambda: equalizer(f, g, src, dst))
        assert claim == (None if closed else "equalizer-closed")
        if not closed:
            x, y, t = got
            assert {x, y} <= agree and t in table[(x, y)] and t not in agree
            continue
        obj = got.object
        assert naive.table_of(obj.alg) == naive.restricted_table(labels, zero, table, agree)
        assert dict(zip(obj.alg.carrier.labels, obj.mu)) == {x: mu[x] for x in agree}
        include = assert_fuzzy_hom(got.legs["include"], obj, src)
        assert include == {x: x for x in agree}
        assert then(include, fmap) == then(include, gmap)
    assert (len(outcomes), outcomes.count(False)) == (680, 43)


def cospans(le2, small, large) -> list:
    """Every cospan of algebras of at most two elements; then, for each large source, a seeded
    hom f out of it with each hom g into f's target out of a seeded small algebra."""
    rng = random.Random(33)
    pairs = []
    for a, b, c in itertools.product(le2, repeat=3):
        pairs += itertools.product(enumerate_homs(a, c), enumerate_homs(b, c))
    for _, dst, homs in large:
        f = rng.choice(homs)
        pairs += [(f, g) for g in enumerate_homs(rng.choice(small), dst)]
    return pairs


def test_pullbacks_are_the_literal_subset_of_the_product_cells(
    corpus_le2, product_pairs, subalgebra_pairs
):
    small = small_algebras(corpus_le2)
    large = large_sources(small, product_pairs, subalgebra_pairs)
    rng = random.Random(34)
    outcomes = []
    for f, g in cospans(corpus_le2, small, large):
        c = degrees(rng, f.target)
        a, b = below(rng, f.source, (f, c)), below(rng, g.source, (g, c))
        (_, _, _, mu_a), (_, _, _, mu_b) = literal(a), literal(b)
        elements, zero, cells = naive.product_cells([naive.table_of(a.alg), naive.table_of(b.alg)])
        fmap, gmap = label_map(f), label_map(g)
        subset = frozenset(t for t in elements if fmap[t[0]] == gmap[t[1]])
        closed = naive.is_subalgebra(cells, zero, subset)
        outcomes.append(closed)
        claim, got = outcome(lambda: pullback(f, g, a, b, c))
        assert claim == (None if closed else "equalizer-closed")
        if not closed:
            continue
        obj = got.object
        kept, _, sub_cells = naive.restricted_table(elements, zero, cells, subset)
        assert naive.table_of(obj.alg) == (
            tuple(map(name, kept)),
            name(zero),
            {(name(x), name(y)): frozenset(map(name, t)) for (x, y), t in sub_cells.items()},
        )
        assert obj.mu == tuple(min(mu_a[x], mu_b[y]) for x, y in kept)
        to_a = assert_fuzzy_hom(got.legs["to_a"], obj, a)
        to_b = assert_fuzzy_hom(got.legs["to_b"], obj, b)
        assert to_a == {name(t): t[0] for t in kept} and to_b == {name(t): t[1] for t in kept}
        assert then(to_a, fmap) == then(to_b, gmap)
    assert (len(outcomes), outcomes.count(False)) == (1657, 14)


def test_product_legs_and_mediators_are_literal_fuzzy_homs(
    corpus_le2, corpus3, product_pairs, subalgebra_pairs
):
    # Every cone out of an algebra of at most two elements into two such factors; then, out of
    # each large source, four seeded cones into its target and a seeded size-3 model.
    small = small_algebras(corpus_le2)
    rng = random.Random(35)
    spans = [(w, x, y, None) for x, y, w in itertools.product(corpus_le2, repeat=3)]
    for src, dst, _ in large_sources(small, product_pairs, subalgebra_pairs):
        spans.append((src, dst, rng.choice(corpus3.models), 4))
    cones = missing = 0
    for w_alg, x_alg, y_alg, sample in spans:
        x, y = degrees(rng, x_alg), degrees(rng, y_alg)
        result = product([x, y])
        obj = result.object
        (_, _, _, mu_x), (_, _, _, mu_y) = literal(x), literal(y)
        elements, zero, cells = naive.product_cells([naive.table_of(x_alg), naive.table_of(y_alg)])
        assert obj.mu == tuple(min(mu_x[s], mu_y[t]) for s, t in elements)
        legs = [assert_fuzzy_hom(result.legs[p], obj, f) for p, f in (("p0", x), ("p1", y))]
        assert legs == [{name(t): t[i] for t in elements} for i in (0, 1)]
        cells = {(name(s), name(t)): frozenset(map(name, c)) for (s, t), c in cells.items()}
        pairs = list(itertools.product(enumerate_homs(w_alg, x_alg), enumerate_homs(w_alg, y_alg)))
        for q1, q2 in pairs if sample is None else rng.sample(pairs, min(sample, len(pairs))):
            w = below(rng, w_alg, (q1, x), (q2, y))
            labels, w_zero, w_table, _ = literal(w)
            m1, m2 = label_map(q1), label_map(q2)
            tupling = {v: name((m1[v], m2[v])) for v in labels}
            is_hom = naive.is_hom(w_table, w_zero, labels, cells, name(zero), tupling)
            claim, got = outcome(lambda: mediate_product(result, w, [q1, q2]))
            assert claim == (None if is_hom else "product-mediator-hom")
            cones += 1
            if not is_hom:
                assert got == tupling
                missing += 1
                continue
            phi = assert_fuzzy_hom(got, w, obj)
            assert phi == tupling and then(phi, legs[0]) == m1 and then(phi, legs[1]) == m2
    assert (cones, missing) == (1145, 30)


def test_coequalizer_legs_and_mediators_are_literal_fuzzy_homs(
    corpus_le2, product_pairs, subalgebra_pairs
):
    # Every parallel pair of small algebras, then two seeded homs out of each large source into
    # a 4-element product.  The quotient is by the literal meet of the coequalizing regular
    # partitions, refused when that meet is not regular; each coequalizing hom out of the
    # target into a small algebra or the quotient itself factors through the quotient.
    small = small_algebras(corpus_le2)
    large = large_sources(small, product_pairs, subalgebra_pairs)
    rng = random.Random(36)
    pairs = parallel_pairs(small, [])
    pairs += [(rng.choice(homs), rng.choice(homs)) for _, dst, homs in large if dst.size == 4]
    built = factored = refused = 0
    for f, g in pairs:
        dst = degrees(rng, f.target)
        src = below(rng, f.source, (f, dst), (g, dst))
        labels, zero, table, mu = literal(dst)
        fmap, gmap = label_map(f), label_map(g)
        meet = naive.coequalizer_blocks(labels, zero, table, [(fmap[x], gmap[x]) for x in fmap])
        regular = naive.quotient_table(labels, zero, table, list(meet))[1]
        claim, got = outcome(lambda: coequalizer(f, g, src, dst))
        assert claim == (None if regular else "congruence-meet-regular")
        if not regular:
            assert set(got) == meet
            refused += 1
            continue
        obj = got.object
        project = assert_fuzzy_hom(got.legs["project"], dst, obj)
        assert then(fmap, project) == then(gmap, project)
        blocks = [frozenset(x for x in labels if project[x] == v) for v in obj.alg.carrier.labels]
        assert set(blocks) == meet
        assert obj.mu == tuple(max(mu[x] for x in block) for block in blocks)
        built += 1
        for target_alg in [*small, obj.alg]:
            for phi in enumerate_homs(dst.alg, target_alg):
                phi_map = label_map(phi)
                if then(fmap, phi_map) != then(gmap, phi_map):
                    continue
                target = above(rng, target_alg, phi, dst)
                psi = assert_fuzzy_hom(mediate_coequalizer(got, target, phi), obj, target)
                assert then(project, psi) == phi_map
                factored += 1
    assert (built, factored, refused) == (591, 11450, 1)
