"""Near-miss variants of the one-implementation kernels, each with the oracle test that kills it.

``MUTANTS`` maps a mutant's name to ``(owner, attribute, make, killer)``: ``make(original)``
builds the mutant from the kernel ``getattr(owner, attribute)``, and ``killer`` names a Tier-1
test that compares the library with a literal oracle and must fail while the mutant stands in
for the kernel.  ``tests/test_mutants.py`` runs each killer against its mutant.
"""

from __future__ import annotations

import __future__
import inspect

from hyperbck import core, fuzzy, morphisms
from hyperbck.core import HyperBCK, iter_bits


def edited(old, new):
    """A ``make`` that recompiles the kernel in its module with its one ``old`` text as ``new``."""

    def make(original):
        source = inspect.getsource(original)
        assert source.count(old) == 1, (original.__name__, old)
        code = compile(
            source.replace(old, new), inspect.getsourcefile(original), "exec",
            __future__.annotations.compiler_flag, dont_inherit=True,
        )
        defined = {}
        exec(code, original.__globals__, defined)
        return defined[original.__name__]

    return make


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


def hk2_mismatch_skipping_the_last_instance(original):
    """The HK2 scan passing over the last instance of every plan, the zero's (y, z) = (n-2, n-1)."""

    def mutant(table, instances):
        last = {id(i) for plan in core._hk2_plan.values() for i in plan[-1:]}
        return original(table, (i for i in instances if id(i) not in last))

    return mutant


def first_broken_cell_skipping_row_five(original):
    """The hom equation tested on every cell but those with x = 5."""

    def mutant(cells, mapping, image, dst_table, m):
        return original([c for c in cells if c[0] != 5], mapping, image, dst_table, m)

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
    "core._past_hk2_failures skipping z = n - 1 in HK1": (
        core, "_past_hk2_failures", edited("enumerate(rows[y])", "enumerate(rows[y][:-1])"),
        "test_core.py::test_a_nine_element_product_with_zero_moved_matches_literal_oracle",
    ),
    "core._past_hk2_failures testing lhs & d in HK1": (
        core, "_past_hk2_failures", edited("lhs & ~d", "lhs & d"),
        "test_core.py::test_a_nine_element_product_of_models_with_zero_moved_matches_literal_oracle",
    ),
    "core._hk2_mismatch skipping the plan's last instance": (
        core, "_hk2_mismatch", hk2_mismatch_skipping_the_last_instance,
        "test_core.py::test_shared_findings_are_keyed_by_the_labels",
    ),
    "morphisms._first_broken_cell skipping x = 5": (
        morphisms, "_first_broken_cell", first_broken_cell_skipping_row_five,
        "test_morphisms.py::test_no_map_that_breaks_one_cell_is_a_hom",
    ),
    "fuzzy._membership_failures with <= for <": (
        fuzzy, "_membership_failures", edited("mu[t] < bound", "mu[t] <= bound"),
        "test_fuzzy.py::test_fail_fast_and_report_agree_with_oracle",
    ),
}
