"""Finite hyper BCK-algebras, fuzzy membership layers, and their category."""

from types import ModuleType as _ModuleType

from .core import (
    Carrier,
    ClaimViolation,
    HyperBCK,
    InfoCheck,
    InputError,
    ValidationReport,
    Violation,
    hk_axioms_hold,
    trivial_algebra,
    validate_hyper_bck,
)
from .fuzzy import (
    CollapseVerdict,
    CutVerdict,
    FuzzyHyperBCK,
    check_collapse_properties,
    equals_some_alpha_cut,
    format_fuzzy,
    fuzzy_value,
    validate_fuzzy,
)
from .morphisms import (
    Hom,
    MonoVerdict,
    SeparationVerdict,
    check_mono_equivalence,
    enumerate_homs,
    fuzzy_hom_via_cuts,
    is_fuzzy_hom,
    is_fuzzy_iso,
    is_hom,
    separation_promotes,
)
from .category import (
    Congruence,
    ConstructionResult,
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
from .corpus import (
    ModelCorpus,
    canonical_form,
    chain_example,
    enumerate_fuzzy_assignments,
    enumerate_hyper_bck,
)
from .io import FormatError, parse_structure, render_structure

__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType))

__version__ = "0.1.0"
