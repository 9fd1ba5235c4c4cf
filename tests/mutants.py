"""Near-miss variants of the one-implementation kernels, each with the oracle test that kills it.

``MUTANTS`` maps a mutant's name to ``(owner, attribute, make, killer)``: ``make(original)``
builds the mutant from the kernel ``getattr(owner, attribute)``, and ``killer`` names a Tier-1
test that compares the library with a literal oracle and must fail while the mutant stands in
for the kernel.  ``tests/test_mutants.py`` runs each killer against its mutant.
"""

from __future__ import annotations

from hyperbck import core
from hyperbck.core import HyperBCK, iter_bits


def down_masks_one_bit_off(original):
    """The hyperorder scan with element 0 toggled in the last element's down set."""

    def mutant(n, zero, table):
        dn = original(n, zero, table)
        dn[-1] ^= 1
        return dn

    return mutant


def image_masks_dropping_the_last_part(original):
    """Image tables that join every part but the last, so the last element maps to nothing."""

    def mutant(mapping, listed=False):
        return core._mask_ors([*(1 << v for v in list(mapping)[:-1]), 0], listed=listed)

    return mutant


def first_escape_skipping_the_last_row(original):
    """The closure scan over every row of the mask but its last."""

    def mutant(self, mask):
        n = len(self.carrier)
        for x in iter_bits(mask)[:-1]:
            for y in iter_bits(mask):
                stray = self.table[x * n + y] & ~mask
                if stray:
                    return x, y, (stray & -stray).bit_length() - 1
        return None

    return mutant


MUTANTS = {
    "core._down_masks one bit off": (
        core, "_down_masks", down_masks_one_bit_off,
        "test_core.py::test_set_order_and_set_star_agree_with_literal_oracle",
    ),
    "core._image_masks dropping the last part": (
        core, "_image_masks", image_masks_dropping_the_last_part,
        "test_corpus.py::test_relabeling_past_the_tabled_size_matches_literal_oracle",
    ),
    "HyperBCK._first_escape skipping the last row": (
        HyperBCK, "_first_escape", first_escape_skipping_the_last_row,
        "test_core.py::test_subalgebra_masks_agree_with_literal_oracle",
    ),
}
