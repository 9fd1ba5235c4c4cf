"""Near-miss variants of the one-implementation kernels, each with the oracle test that kills it.

``MUTANTS`` maps a mutant's name to ``(owner, attribute, make, killer)``: ``make(original)``
builds the mutant from the kernel ``getattr(owner, attribute)``, and ``killer`` names a Tier-1
test, with its parameters' id in brackets if it has any, that compares the library with a
literal oracle and must fail while the mutant stands in for the kernel.
``tests/test_mutants.py`` runs each killer against its mutant.

The constructions check none of the guarantees that hold by construction, so five mutants
break one of them each: the equalizer's inclusion, the product's projections, the quotient's
projection, and the product and coequalizer mediators.  The last keeps a refusal where
``core.located``, the one relocation of a refusal, should move it.
"""

from __future__ import annotations

import __future__
import inspect

from hyperbck import category, core, corpus, fuzzy, io, morphisms
from hyperbck.core import HyperBCK, iter_bits


def edited(old, new):
    """A ``make`` that recompiles the kernel in its module with its one ``old`` text as ``new``;
    a bounded store's ``make`` or a wrapped function is recompiled with its decorator, which
    builds a new store or wrapper."""

    def make(original):
        function = inspect.unwrap(getattr(original, "make", original))
        source = inspect.getsource(function)
        assert source.count(old) == 1, (function.__name__, old)
        code = compile(
            source.replace(old, new), inspect.getsourcefile(function), "exec",
            __future__.annotations.compiler_flag, dont_inherit=True,
        )
        defined = {}
        exec(code, function.__globals__, defined)
        return defined[function.__name__]

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

    def mutant(mapping):
        return core._mask_ors([*(1 << v for v in list(mapping)[:-1]), 0])

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
    "corpus._assignment_table taking each cut one level up": (
        corpus, "_assignment_table",
        edited("for ps in chosen), cuts)", "for ps in chosen), (*cuts[1:], 0))"),
        "test_fuzzy.py::test_tabled_assignments_carry_the_data_of_fresh_structures[grid0]",
    ),
    "category._quotient_cells reading one row per block": (
        category, "_quotient_cells",
        edited("for x in bx for y in by", "for x in bx[:1] for y in by"),
        "test_category.py::test_quotients_match_literal_oracle",
    ),
    "corpus._apply_plan leaving the last cell unrelabeled": (
        corpus, "_apply_plan", edited(
            "tuple([image[table[pos]] for pos in sources])",
            "(*[image[table[pos]] for pos in sources[:-1]], table[sources[-1]])",
        ),
        "test_corpus.py::test_relabeling_matches_literal_oracle",
    ),
    "io._render_pieces keying the cells in column order": (
        io, "_render_pieces",
        edited("for x in labels for y in labels", "for y in labels for x in labels"),
        "test_cli.py::test_document_commands_print_frozen_bytes[example --chain 3]",
    ),
    "category.equalizer including the last agreeing element as the zero": (
        category, "_equalize", edited(
            "iter_bits(k_mask), True)", "(*iter_bits(k_mask)[:-1], src.alg.zero), True)"
        ),
        "test_construction_oracles.py::test_equalizers_are_the_literal_agreement_subalgebra",
    ),
    "category._crisp_product projecting the last tuple to the zero": (
        category, "_crisp_product",
        edited("(alg, a, p, True)", "(alg, a, (*p[:-1], a.zero), True)"),
        "test_construction_oracles.py::test_product_legs_and_mediators_are_literal_fuzzy_homs",
    ),
    "category.quotient projecting the last element to the zero's block": (
        category, "quotient", edited(
            "cong._to_block, True)",
            "(*cong._to_block[:-1], cong.block_of(cong.base.zero)), True)",
        ),
        "test_construction_oracles.py::test_coequalizer_legs_and_mediators_are_literal_fuzzy_homs",
    ),
    "category.mediate_product sending the last element to the zero": (
        category, "mediate_product", edited(
            "result.object.alg, mapping)",
            "result.object.alg, (*mapping[:-1], result.object.alg.zero))",
        ),
        "test_construction_oracles.py::test_product_legs_and_mediators_are_literal_fuzzy_homs",
    ),
    "category.mediate_coequalizer sending the last block to the zero": (
        category, "mediate_coequalizer", edited(
            "tuple(mapping), True)", "(*mapping[:-1], target.alg.zero), True)"
        ),
        "test_construction_oracles.py::test_coequalizer_legs_and_mediators_are_literal_fuzzy_homs",
    ),
    "core.located keeping the old location": (
        core, "located", edited("exc.code, at)", "exc.code, exc.location)"),
        "test_category.py::test_the_map_gate_codes_each_refusal_and_names_the_refused_map",
    ),
}
