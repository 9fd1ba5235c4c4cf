#!/usr/bin/env python3
"""Categorical constructions, including the ones that fail on instances.

Products, equalizers, coequalizers and pullbacks are built concretely; what
holds by construction is not re-checked, and what can fail is checked on
the spot.  Two textbook claims break at desk scale, and the constructions
surface that with witnesses instead of returning wrong objects.
"""

from fractions import Fraction

from hyperbck import ClaimViolation, FuzzyHyperBCK, HyperBCK, validate_fuzzy, validate_hyper_bck
from hyperbck.category import (
    coequalizer,
    equalizer,
    mediate_coequalizer,
    mediate_product,
    product,
    pullback,
    terminal,
)
from hyperbck.corpus import chain_example
from hyperbck.morphisms import Hom

c2 = chain_example(2)
zero2 = FuzzyHyperBCK(c2.alg, (Fraction(0),) * 2)

print("terminal object:", terminal().alg.carrier.labels, "mu =", terminal().mu)

square = product([c2, c2])
print("\nproduct of the 2-chain with itself:")
print("  carrier:", square.object.alg.carrier.labels)
print("  (2|2)*(2|2) =", sorted(square.object.alg.star("2|2", "2|2")))
print("  membership of 2|1:", square.object.mu_of("2|1"))
print("  validates:", validate_hyper_bck(square.object.alg).passed, validate_fuzzy(square.object).passed)

print("\nmediating the identity cone into the square:")
try:
    mediate_product(square, c2, [Hom.identity(c2.alg), Hom.identity(c2.alg)])
except ClaimViolation as exc:
    print("  no mediator exists:", exc.claim)
    print("  forced map:", exc.witness)
    print("  (its image of (2,2) is the diagonal pair, the product cell is the full square)")

print("\nmediating a collapsing cone instead:")
squarez = product([zero2, zero2])
collapse = Hom(c2.alg, c2.alg, (0, 0))
phi = mediate_product(squarez, zero2, [Hom.identity(c2.alg), collapse])
print("  mediator:", phi.as_label_map())

ident = Hom.identity(c2.alg)
eq = equalizer(ident, collapse, zero2, zero2)
print("\nequalizer of identity and collapse:", eq.object.alg.carrier.labels)

co = coequalizer(ident, collapse, zero2, zero2)
print("coequalizer of the same pair:", co.object.alg.carrier.labels,
      "blocks:", [sorted(b) for b in co.congruence.label_blocks()])
psi = mediate_coequalizer(co, co.object, co.legs["project"])
print("factoring the projection through itself gives", psi.as_label_map())

graded = FuzzyHyperBCK(c2.alg, (Fraction(1), Fraction(1, 2)))
co2 = coequalizer(ident, collapse, zero2, graded)
print("with graded membership the merged block takes the maximum:", co2.object.mu)

print("\ncoequalizer into a 6-element product whose generated equivalence E is not regular:")
flat = HyperBCK.from_sets(["O", "a"], "O", {(x, y): ["O"] for x in "Oa" for y in "Oa"})
cells = {(x, y): ["a"] if (x, y) == ("b", "a") else ["O"] for x in "Oab" for y in "Oab"}
three = HyperBCK.from_sets(["O", "a", "b"], "O", cells)  # b*a = {a}, every other cell {O}
six = product([FuzzyHyperBCK(alg, (Fraction(0),) * alg.size) for alg in (flat, three)]).object
to_zero = Hom.from_labels(flat, six.alg, {"O": "O|O", "a": "O|O"})
to_b = Hom.from_labels(flat, six.alg, {"O": "O|O", "a": "O|b"})
flat_zero = FuzzyHyperBCK(flat, (Fraction(0),) * 2)
co6 = coequalizer(to_zero, to_b, flat_zero, six)
print("  E merges O|O with O|b only, and its quotient cells depend on representatives")
print("  the walk over E's 5 classes finds the least regular coarsening:",
      [sorted(b) for b in co6.congruence.label_blocks()])
print("  quotient carrier:", co6.object.alg.carrier.labels)

print("\npullback of the identity cospan over the 2-chain:")
try:
    pullback(ident, ident, c2, c2, c2)
except ClaimViolation as exc:
    print("  construction fails:", exc.claim, "witness:", exc.witness)
    print("  (the agreement set is the diagonal of the square, and the")
    print("   diagonal is not closed under the componentwise cells)")

from hyperbck.category import terminal_map

to_terminal = terminal_map(c2.alg)
wide = pullback(to_terminal, to_terminal, zero2, zero2, terminal())
print("\npullback over the one-element target is the whole square:",
      wide.object.alg.carrier.labels)
