"""Independent literal expansion of the definitions, used as the test oracle.

Everything here works on label dictionaries and frozensets with the
quantifiers spelled out one by one.  It deliberately shares no code or
representation with the library's bitmask implementation, so agreement
between the two is evidence, not tautology.
"""

from __future__ import annotations

from itertools import permutations, product

Table = dict[tuple[str, str], frozenset[str]]


def table_of(alg) -> tuple[tuple[str, ...], str, Table]:
    """Extract (labels, zero, cell dict) through the public label API."""
    labels = alg.carrier.labels
    table = {
        (x, y): frozenset(alg.star(x, y))
        for x in labels
        for y in labels
    }
    return labels, alg.carrier.zero_label, table


def raw_table(n: int, masks: tuple[int, ...]) -> tuple[tuple[str, ...], str, Table]:
    """Interpret a tuple of bitmasks as a label table (zero is element '0')."""
    labels = tuple(str(i) for i in range(n))
    table: Table = {}
    for x in range(n):
        for y in range(n):
            cell = masks[x * n + y]
            table[(labels[x], labels[y])] = frozenset(
                labels[t] for t in range(n) if cell & (1 << t)
            )
    return labels, "0", table


def set_star(table: Table, a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    out: set[str] = set()
    for x in a:
        for y in b:
            out |= table[(x, y)]
    return frozenset(out)


def less(table: Table, zero: str, x: str, y: str) -> bool:
    return zero in table[(x, y)]


def set_order(table: Table, zero: str, a: frozenset[str], b: frozenset[str]) -> bool:
    for x in a:
        if not any(less(table, zero, x, y) for y in b):
            return False
    return True


def _hk_literal_failures(
    labels: tuple[str, ...], zero: str, table: Table, strict_antisymmetry: bool
):
    universe = frozenset(labels)
    for x, y, z in product(labels, repeat=3):
        left = set_star(table, table[(x, y)], frozenset({z}))
        right = set_star(table, table[(x, z)], frozenset({y}))
        if left != right:
            yield "HK2", (x, y, z)
        if not set_order(
            table, zero, set_star(table, table[(x, z)], table[(y, z)]), table[(x, y)]
        ):
            yield "HK1", (x, y, z)
    for x in labels:
        if not set_order(table, zero, set_star(table, frozenset({x}), universe), frozenset({x})):
            yield "HK3", (x,)
    if strict_antisymmetry:
        for i, x in enumerate(labels):
            for y in labels[i + 1 :]:
                if less(table, zero, x, y) and less(table, zero, y, x):
                    yield "HK4", (x, y)


def hk_failures(
    labels: tuple[str, ...], zero: str, table: Table, strict_antisymmetry: bool = False
) -> list[tuple[str, tuple[str, ...]]]:
    """Every falsified (axiom, witness) pair, in the documented report order.

    Per triple (x, y, z) in carrier order: HK2 (x*y)*z = (x*z)*y, then HK1
    (x*z)*(y*z) < x*y; then HK3 x*H < {x} per x; then, when asked, HK4 per
    pair x before y with x < y and y < x.
    """
    return list(_hk_literal_failures(labels, zero, table, strict_antisymmetry))


def hk_sides(
    table: Table, axiom: str, witness: tuple[str, str, str]
) -> tuple[frozenset[str], frozenset[str]]:
    """The two sides of HK1 or HK2 at the triple (x, y, z), spelled out.

    HK1: (x*z)*(y*z) and x*y; HK2: (x*y)*z and (x*z)*y.
    """
    x, y, z = witness
    if axiom == "HK1":
        return set_star(table, table[(x, z)], table[(y, z)]), table[(x, y)]
    if axiom == "HK2":
        return (
            set_star(table, table[(x, y)], frozenset({z})),
            set_star(table, table[(x, z)], frozenset({y})),
        )
    raise ValueError(f"no sides for {axiom}")


def hk_valid(
    labels: tuple[str, ...], zero: str, table: Table, strict_antisymmetry: bool = False
) -> bool:
    """Literal check of the three axioms (and optionally antisymmetry)."""
    return next(_hk_literal_failures(labels, zero, table, strict_antisymmetry), None) is None


def relabeled(n: int, masks: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The table whose cell (perm x, perm y) is {perm t : t in x*y}, as masks."""
    cells = {}
    for x in range(n):
        for y in range(n):
            cells[(perm[x], perm[y])] = {perm[t] for t in range(n) if masks[x * n + y] & 2**t}
    return tuple(sum(2**t for t in cells[(x, y)]) for x in range(n) for y in range(n))


def canonical_table(n: int, zero: int, masks: tuple[int, ...]) -> tuple[int, ...]:
    """The least relabeling of ``masks`` over every permutation that fixes ``zero``."""
    return min(relabeled(n, masks, perm) for perm in permutations(range(n)) if perm[zero] == zero)


def is_subalgebra(table: Table, zero: str, subset: frozenset[str]) -> bool:
    if zero not in subset:
        return False
    for x in subset:
        for y in subset:
            if not table[(x, y)] <= subset:
                return False
    return True


def is_hom(
    src_table: Table,
    src_zero: str,
    src_labels: tuple[str, ...],
    dst_table: Table,
    dst_zero: str,
    mapping: dict[str, str],
) -> bool:
    """Literal strong-homomorphism check on label tables."""
    if mapping[src_zero] != dst_zero:
        return False
    for x in src_labels:
        for y in src_labels:
            image = frozenset(mapping[t] for t in src_table[(x, y)])
            if image != dst_table[(mapping[x], mapping[y])]:
                return False
    return True


def hom_maps(
    src: tuple[tuple[str, ...], str, Table], dst: tuple[tuple[str, ...], str, Table]
) -> list[tuple[int, ...]]:
    """Every strong hom src -> dst as a tuple of target positions.

    Every map is tried, in lexicographic order of the value tuple.
    """
    src_labels, src_zero, src_table = src
    dst_labels, dst_zero, dst_table = dst
    return [
        values
        for values in product(range(len(dst_labels)), repeat=len(src_labels))
        if is_hom(
            src_table,
            src_zero,
            src_labels,
            dst_table,
            dst_zero,
            {lab: dst_labels[v] for lab, v in zip(src_labels, values)},
        )
    ]


def mono_witness(
    probes: list[tuple[tuple[str, ...], str, Table]],
    source: tuple[tuple[str, ...], str, Table],
    mapping: dict[str, str],
) -> tuple[int, tuple[int, ...], tuple[int, ...]] | None:
    """The first parallel pair that ``mapping`` (source label -> target label) fails to separate.

    Probes are scanned in the given order; for each, every pair i < j of its
    homs into ``source`` is compared after ``mapping``.  Returns the probe's
    position and the two homs as source positions, or None.
    """
    labels = source[0]
    for pos, probe in enumerate(probes):
        homs = hom_maps(probe, source)
        for i in range(len(homs)):
            for j in range(i + 1, len(homs)):
                if all(
                    mapping[labels[a]] == mapping[labels[b]] for a, b in zip(homs[i], homs[j])
                ):
                    return pos, homs[i], homs[j]
    return None


def fuzzy_mono_witness(
    probes: list[tuple[tuple[str, ...], str, Table]],
    grid: tuple,
    source: tuple[tuple[str, ...], str, Table],
    mu: dict[str, object],
    mapping: dict[str, str],
) -> tuple[int, tuple, tuple[int, ...], tuple[int, ...]] | None:
    """The first fuzzy probe with a pair of fuzzy homs into (source, mu) that ``mapping`` joins.

    Probes are scanned in the given order, and on each every membership nu
    with values in ``grid`` (in product order) that passes the literal
    inequality.  A fuzzy hom is a hom p with nu(t) <= mu(p(t)) for every t;
    every pair i < j of them is compared after ``mapping``.  Returns the
    probe's position, nu as a tuple in the probe's label order, and the two
    homs as source positions, or None.
    """
    labels = source[0]
    for pos, probe in enumerate(probes):
        probe_labels, _, probe_table = probe
        homs = hom_maps(probe, source)
        if len(homs) < 2:
            continue  # nu only removes homs, so no pair can appear
        for values in product(grid, repeat=len(probe_labels)):
            nu = dict(zip(probe_labels, values))
            if not fuzzy_ok(probe_labels, probe_table, nu):
                continue
            fuzzy = [
                p for p in homs if all(nu[t] <= mu[labels[v]] for t, v in zip(probe_labels, p))
            ]
            for i in range(len(fuzzy)):
                for j in range(i + 1, len(fuzzy)):
                    if all(
                        mapping[labels[a]] == mapping[labels[b]]
                        for a, b in zip(fuzzy[i], fuzzy[j])
                    ):
                        return pos, values, fuzzy[i], fuzzy[j]
    return None


def fuzzy_ok(labels: tuple[str, ...], table: Table, mu: dict[str, object]) -> bool:
    """Literal check of the membership inequality."""
    for x in labels:
        for y in labels:
            if min(mu[t] for t in table[(x, y)]) < min(mu[x], mu[y]):
                return False
    return True


def fuzzy_report(labels: tuple[str, ...], zero: str, table: Table, mu: dict[str, object]):
    """The membership report spelled out: its violations and its informational checks.

    Violations are ``((x, y), min of mu over x*y, min(mu(x), mu(y)))`` in label
    order; checks are ``(name, holds)``, the collapse ones only where they apply.
    """
    violations = []
    for x in labels:
        for y in labels:
            got = min(mu[t] for t in table[(x, y)])
            bound = min(mu[x], mu[y])
            if got < bound:
                violations.append(((x, y), got, bound))
    checks = [("zero-max", all(mu[zero] >= mu[x] for x in labels))]
    if all(mu[x] <= mu[y] for x in labels for y in labels if less(table, zero, x, y)):
        checks.append(("collapse-monotone", all(mu[x] == mu[zero] for x in labels)))
    if mu[zero] == 0:
        checks.append(("collapse-zero", all(mu[x] == 0 for x in labels)))
    return violations, checks


def cut_level(mu: dict[str, object], subset: frozenset[str]):
    """The highest level among the mu values and 0 whose level set is ``subset``, or None."""
    hits = [
        alpha
        for alpha in set(mu.values()) | {0}
        if frozenset(x for x in mu if mu[x] >= alpha) == subset
    ]
    return max(hits, default=None)


def product_cells(
    factors: list[tuple[tuple[str, ...], str, Table]],
) -> tuple[list[tuple[str, ...]], tuple[str, ...], dict]:
    """The product of label tables, spelled out.

    Elements are the tuples of labels in lexicographic order of the carriers,
    the zero is the tuple of the zeros, and the cell of (x, y) holds every
    tuple t with t[i] in x[i]*y[i] for each factor i.
    """
    elements = list(product(*(labels for labels, _, _ in factors)))
    zero = tuple(z for _, z, _ in factors)
    table = {}
    for x in elements:
        for y in elements:
            table[(x, y)] = frozenset(
                t
                for t in elements
                if all(t[i] in cells[(x[i], y[i])] for i, (_, _, cells) in enumerate(factors))
            )
    return elements, zero, table


def partitions(items: tuple) -> list[list[frozenset]]:
    """Every set partition of ``items``, as lists of blocks."""
    if not items:
        return [[]]
    first = items[0]
    out = []
    for part in partitions(items[1:]):
        out.append([frozenset({first}), *part])
        for i in range(len(part)):
            out.append([*part[:i], part[i] | {first}, *part[i + 1 :]])
    return out


def quotient_table(
    labels: tuple[str, ...], zero: str, table: Table, blocks: list[frozenset[str]]
) -> tuple[dict | None, bool]:
    """The block table of a partition, and whether the partition is a regular congruence.

    The cell of blocks (A, B) is the set of blocks that x*y meets; it must be
    the same for every x in A and y in B, else the table is None.  The
    partition is regular when the table exists and satisfies the axioms,
    with the zero's block as zero.
    """

    def block_of(t: str) -> frozenset[str]:
        return next(b for b in blocks if t in b)

    cells = {}
    for a in blocks:
        for b in blocks:
            seen = {frozenset(block_of(t) for t in table[(x, y)]) for x in a for y in b}
            if len(seen) != 1:
                return None, False
            cells[(a, b)] = seen.pop()
    return cells, hk_valid(tuple(blocks), block_of(zero), cells)


def restricted_table(
    labels: tuple[str, ...], zero: str, table: Table, subset: frozenset[str]
) -> tuple[tuple[str, ...], str, Table]:
    """The subset's labels in carrier order, the zero, and the cells among them."""
    kept = tuple(x for x in labels if x in subset)
    return kept, zero, {(x, y): table[(x, y)] for x in kept for y in kept}
