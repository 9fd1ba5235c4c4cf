"""Frozen outputs the workloads check against.

Census inputs and the cospans of size <= 2 do not depend on the seed, so
their values hold for every seed; the ``*_DEFAULT_SEED`` values hold for
seed 0 only.  ``outcome_sha256`` hashes every op's recorded outcome in
order (verdicts, witnesses, assignments, maps, CLI output).  Changing a
value here is a change in the library's answers, never a benchmark tweak.
"""

DEFAULT_SEED = 0

CENSUS = {
    "iso_lines": 8048,
    "iso_sha256": "30a359b993738d919368ab70f039dcf5103b5a758ebe2e2e7ddffec1d122428d",
    "totals": {
        "mono_homs": 116,
        "crisp_monos": 20,
        "outcome_sha256": "0f19b2453aaff6b7f128d8cf11e10d44b1c4090c4a4886757631c7980bc0278b",
    },
}

# the size-3 search as the traced census run must count it
CENSUS_SEARCH = {"canonical_kept": 8048, "leaves": 413488, "survivors": 15936}

VERIFY_DEFAULT_SEED = {
    "valid": 313,
    "violations": 55792,
    "assignments": 6853,
    "cuts": 13090,
    "outcome_sha256": "a8de24f0181faace7f1bddcc458d9eb0721075df77c12940831ae6bd2ab1de6a",
}

CATEGORY = {
    "cospans": 1546,
    "pullback_violations": 10,
    "coequalizer_pairs": 150,
}

CATEGORY_DEFAULT_SEED = {
    "fuzzy_homs": 1889,
    "cones_without_mediator": 2,
    "claim_violations": 13,
    "outcome_sha256": "7d8908b17adf67e7cd5e2177a24b8b47ae436494ec004fae746fd613f9c812b0",
}

# index in the cospan order -> [claim, repr(witness)]; every other cospan
# of size <= 2 has a pullback
PULLBACK_VIOLATIONS = {
    260: ["equalizer-closed", "('a|a', 'a|a', 'O|a')"],
    532: ["equalizer-closed", "('a|a', 'a|a', 'O|a')"],
    668: ["equalizer-closed", "('a|a', 'O|O', 'O|a')"],
    804: ["equalizer-closed", "('a|a', 'O|O', 'O|a')"],
    940: ["equalizer-closed", "('O|O', 'a|a', 'O|a')"],
    1065: ["equalizer-closed", "('O|O', 'O|O', 'O|a')"],
    1185: ["equalizer-closed", "('O|O', 'O|O', 'O|a')"],
    1305: ["equalizer-closed", "('O|O', 'O|O', 'O|a')"],
    1425: ["equalizer-closed", "('O|O', 'O|O', 'O|a')"],
    1545: ["equalizer-closed", "('O|O', 'O|O', 'O|a')"],
}
