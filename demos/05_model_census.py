#!/usr/bin/env python3
"""Exhaustive model census: every small model, canonical forms, assignments.

The enumerator walks every cell table that satisfies HK3, grouped by
which cells contain the zero, and keeps exactly the law-abiding ones; it
is the ground truth behind the property suites.  Size 3 takes a few
seconds.
"""

import time
from collections import Counter
from fractions import Fraction

from hyperbck import validate_hyper_bck
from hyperbck.corpus import (
    canonical_form,
    chain_example,
    enumerate_fuzzy_assignments,
    enumerate_hyper_bck,
)

for n in (1, 2, 3):
    t0 = time.time()
    raw = enumerate_hyper_bck(n)
    iso = enumerate_hyper_bck(n, up_to_iso=True)
    print(f"size {n}: {len(raw):>6} models, {len(iso):>5} up to relabeling "
          f"({time.time() - t0:.1f}s)")

models2 = enumerate_hyper_bck(2)
print("\nall twelve two-element models (cells of O*O, O*a, a*O, a*a):")
for alg in models2:
    cells = [sorted(alg.star(x, y)) for x in "Oa" for y in "Oa"]
    anti = validate_hyper_bck(alg, strict_antisymmetry=True).passed
    print("  ", cells, "| antisymmetric" if anti else "")

iso3 = enumerate_hyper_bck(3, up_to_iso=True)
sample = iso3.models[123]
print("\ncanonical form is a relabeling invariant:",
      canonical_form(sample) == canonical_form(sample.restrict(sample.carrier.labels)))

grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
counts = Counter(len(enumerate_fuzzy_assignments(alg, grid)) for alg in models2)
print("\nassignments over the grid {0, 1/2, 1} per two-element model:",
      dict(sorted(counts.items())))

print("\nthe worked chain family (membership always passes; the axioms")
print("only survive up to length 2 -- the first axiom breaks at (3,2,3)):")
for k in range(1, 7):
    chain = chain_example(k)
    report = validate_hyper_bck(chain.alg)
    from hyperbck import validate_fuzzy

    print(f"  length {k}: axioms {'pass' if report.passed else 'fail'},"
          f" membership {'pass' if validate_fuzzy(chain).passed else 'fail'}")
