"""Command-line behavior: exit codes, record streams, determinism, library agreement."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hyperbck import Carrier, FuzzyHyperBCK, HyperBCK, product, validate_hyper_bck
from hyperbck.cli import main
from hyperbck.corpus import chain_example, enumerate_hyper_bck
from hyperbck.io import parse_structure, render_structure, structure_to_dict


def run(capsys, *argv) -> tuple[int, list[dict]]:
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line]
    return code, records


@pytest.fixture()
def chain3_path(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(render_structure(chain_example(3)))
    return str(path)


@pytest.fixture()
def chain2_path(tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(render_structure(chain_example(2)))
    return str(path)


def hom_doc(tmp_path, name: str, src, dst, mapping: dict[str, str]) -> str:
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "source": structure_to_dict(src),
                "target": structure_to_dict(dst),
                "map": mapping,
            }
        )
    )
    return str(path)


def test_verify_valid_structure(capsys, chain2_path):
    code, records = run(capsys, "verify", chain2_path)
    assert code == 0
    assert records[-1] == {"command": "verify", "passed": True, "record": "verdict"}


def test_verify_reports_axiom_witness(capsys, chain3_path):
    code, records = run(capsys, "verify", chain3_path)
    assert code == 1
    violations = [r for r in records if r["record"] == "violation"]
    assert {"axiom": "HK1", "witness": ["3", "2", "3"]} == {
        "axiom": violations[0]["axiom"],
        "witness": violations[0]["witness"],
    }


def test_verify_strict_flag(capsys, tmp_path):
    alg = HyperBCK.from_sets(
        ["O", "a"],
        "O",
        {
            ("O", "O"): ["O", "a"],
            ("O", "a"): ["O"],
            ("a", "O"): ["O", "a"],
            ("a", "a"): ["O", "a"],
        },
    )
    path = tmp_path / "a.json"
    path.write_text(render_structure(alg))
    assert run(capsys, "verify", str(path))[0] == 0
    code, records = run(capsys, "verify", "--strict-hk4", str(path))
    assert code == 1
    assert any(r.get("axiom") == "HK4" for r in records)


def test_verify_agrees_with_library(capsys, tmp_path, corpus2):
    for i, alg in enumerate(corpus2.models[:5]):
        path = tmp_path / f"m{i}.json"
        path.write_text(render_structure(alg))
        code, _ = run(capsys, "verify", str(path))
        assert (code == 0) == validate_hyper_bck(alg).passed


def test_verify_fuzzy_violation(capsys, tmp_path, chain2_path):
    doc = structure_to_dict(chain_example(2))
    doc["mu"] = {"1": "0", "2": "1"}
    path = tmp_path / "bad_mu.json"
    path.write_text(json.dumps(doc))
    code, records = run(capsys, "verify", str(path))
    assert code == 1
    assert any(r.get("axiom") == "MU" for r in records)


def test_cut_command(capsys, chain3_path):
    code, records = run(capsys, "cut", "--alpha", "1/2", chain3_path)
    assert code == 0
    assert records == [{"alpha": "1/2", "members": ["1", "2"], "record": "alpha-cut"}]


def test_cut_requires_mu(capsys, tmp_path):
    path = tmp_path / "crisp.json"
    path.write_text(render_structure(chain_example(3).alg))
    code, records = run(capsys, "cut", "--alpha", "1/2", str(path))
    assert code == 2
    assert records[0]["record"] == "input-error"


def test_cut_bad_alpha(capsys, chain3_path):
    code, records = run(capsys, "cut", "--alpha", "7/2", chain3_path)
    assert code == 2


def test_hom_check_and_enumerate(capsys, tmp_path, chain2_path, chain3_path):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"1": "1", "2": "2"}))
    code, records = run(capsys, "hom", "--check", str(map_path), chain2_path, chain3_path)
    assert code == 0
    assert records[0] == {"is_fuzzy_hom": True, "is_hom": True, "record": "hom-check"}

    map_path.write_text(json.dumps({"1": "1", "2": "3"}))
    code, records = run(capsys, "hom", "--check", str(map_path), chain2_path, chain3_path)
    assert code == 1
    assert records[0]["is_hom"] is False

    code, records = run(capsys, "hom", "--enumerate", chain2_path, chain3_path)
    assert code == 0
    assert records[-1]["count"] == 2


def test_product_command(capsys, chain2_path):
    code, records = run(capsys, "product", chain2_path, chain2_path)
    assert code == 0
    record = records[0]
    assert record["kind"] == "product"
    obj = record["object"]
    assert obj["carrier"] == ["1|1", "1|2", "2|1", "2|2"]
    assert record["legs"]["p0"]["2|1"] == "2"
    assert parse_structure(json.dumps(obj))  # emitted object is a valid document


def test_product_labels_that_collide_exit_two_naming_both_tuples(capsys, tmp_path):
    table = enumerate_hyper_bck(3, up_to_iso=True).models[0].table
    paths = []
    for name, labels in (("a.json", ("O", "a", "a|b")), ("b.json", ("O", "b|c", "c"))):
        alg = HyperBCK(Carrier(labels, 0), table)
        (tmp_path / name).write_text(render_structure(FuzzyHyperBCK(alg, (Fraction(0),) * 3)))
        paths.append(str(tmp_path / name))
    assert run(capsys, "product", *paths) == (2, [{
        "record": "input-error",
        "message": "factor tuples ('a', 'b|c') and ('a|b', 'c') both get the product label 'a|b|c'",
        "code": "carrier",
        "location": "carrier",
    }])


def test_product_requires_mu(capsys, tmp_path):
    path = tmp_path / "crisp.json"
    path.write_text(render_structure(chain_example(2).alg))
    assert run(capsys, "product", str(path), str(path))[0] == 2


def test_equalizer_and_coequalizer_commands(capsys, tmp_path, chain2_path):
    c2 = chain_example(2)
    f = hom_doc(tmp_path, "f.json", c2, c2, {"1": "1", "2": "2"})
    g = hom_doc(tmp_path, "g.json", c2, c2, {"1": "1", "2": "1"})

    code, records = run(capsys, "equalizer", f, g)
    assert code == 0
    assert records[0]["object"]["carrier"] == ["1"]

    code, records = run(capsys, "coequalizer", f, g)
    assert code == 0
    assert records[0]["blocks"] == [["1", "2"]]
    assert records[0]["object"]["carrier"] == ["[1]"]


def test_coequalizer_refuses_targets_past_the_congruence_bound(capsys, tmp_path):
    assert main(["example", "--chain", "6"]) == 0
    (tmp_path / "c6.json").write_text(capsys.readouterr().out)
    labels = chain_example(6).alg.carrier.labels
    ident = tmp_path / "id.json"
    ident.write_text(
        json.dumps({"source": "c6.json", "target": "c6.json", "map": {x: x for x in labels}})
    )
    code, records = run(capsys, "coequalizer", str(ident), str(ident))
    assert code == 2
    assert records == [
        {
            "record": "input-error",
            "message": "6 classes exceed the congruence enumeration bound 5; "
            "partition counts grow too fast beyond it",
            "code": "too-large",
            "location": "carrier",
        }
    ]
    with pytest.raises(SystemExit):  # the bound is no longer an option
        main(["coequalizer", str(ident), str(ident), "--max-size", "15"])


def test_parallel_pair_endpoint_mismatch(capsys, tmp_path, chain2_path):
    c2, c3 = chain_example(2), chain_example(3)
    f = hom_doc(tmp_path, "f.json", c2, c2, {"1": "1", "2": "2"})
    g = hom_doc(tmp_path, "g.json", c2, c3, {"1": "1", "2": "2"})
    code, records = run(capsys, "equalizer", f, g)
    assert code == 2
    assert records[0]["record"] == "input-error"


def test_pullback_claim_violation_exits_three(capsys, tmp_path):
    c2 = chain_example(2)
    ident = hom_doc(tmp_path, "id.json", c2, c2, {"1": "1", "2": "2"})
    code, records = run(capsys, "pullback", ident, ident)
    assert code == 3
    assert records[0]["record"] == "claim-violation"
    assert records[0]["claim"] == "equalizer-closed"


def test_pullback_to_terminal(capsys, tmp_path):
    from hyperbck.category import terminal
    from hyperbck import FuzzyHyperBCK
    from fractions import Fraction

    c2 = chain_example(2)
    zero = FuzzyHyperBCK(c2.alg, (Fraction(0), Fraction(0)))
    f = hom_doc(tmp_path, "f.json", zero, terminal(), {"1": "O", "2": "O"})
    code, records = run(capsys, "pullback", f, f)
    assert code == 0
    assert len(records[0]["object"]["carrier"]) == 4


def test_enumerate_command(capsys):
    code, records = run(capsys, "enumerate", "--size", "2")
    assert code == 0
    assert len(records) == 12
    parsed = [parse_structure(json.dumps(r)) for r in records]
    assert {alg.table for alg in parsed} == {alg.table for alg in enumerate_hyper_bck(2)}


def test_example_command_round_trips(capsys):
    code = main(["example", "--chain", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_structure(out) == chain_example(3)


def test_missing_file_is_input_error(capsys):
    code, records = run(capsys, "verify", "/nonexistent/path.json")
    assert code == 2
    assert records[0]["record"] == "input-error"


def test_format_error_carries_code_and_location(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"carrier": ["a"], "zero": "a"}')
    code, records = run(capsys, "verify", str(path))
    assert code == 2
    assert records[0]["code"] == "shape"


def test_malformed_map_file_carries_code_and_location(capsys, tmp_path, chain2_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"1": "1",\n')
    code, records = run(capsys, "hom", "--check", str(bad), chain2_path, chain2_path)
    assert code == 2
    assert (records[0]["code"], records[0]["location"]) == ("syntax", f"{bad} line 2 column 1")
    bad.write_text('["1", "2"]')
    code, records = run(capsys, "hom", "--check", str(bad), chain2_path, chain2_path)
    assert code == 2
    assert (records[0]["code"], records[0]["location"]) == ("shape", str(bad))
    bad.write_text('{"1": "1", "2": "2", "2": "1"}')
    code, records = run(capsys, "hom", "--check", str(bad), chain2_path, chain2_path)
    assert code == 2
    assert records[0]["message"] == f"shape at {bad}: repeated key '2'"


@pytest.mark.parametrize(
    "mapping, code",
    [
        ({"1": 2, "2": "2"}, "shape"),  # a non-string label
        ({"1": "1"}, "shape"),  # a missing source label
        ({"1": "1", "2": "2", "3": "1"}, "unknown-label"),  # an unknown source label
        ({"1": "1", "2": "9"}, "unknown-label"),  # an unknown target label
    ],
)
def test_bad_label_maps_get_one_coded_refusal(capsys, tmp_path, chain2_path, mapping, code):
    c2 = chain_example(2)
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(mapping))
    exit_code, records = run(capsys, "hom", "--check", str(map_path), chain2_path, chain2_path)
    assert exit_code == 2
    in_file = records[0]
    assert (in_file["code"], in_file["location"]) == (code, str(map_path))
    doc = hom_doc(tmp_path, "f.json", c2, c2, mapping)
    exit_code, records = run(capsys, "equalizer", doc, doc)
    assert exit_code == 2
    in_doc = records[0]
    assert (in_doc["code"], in_doc["location"]) == (code, f"{doc}.map")
    # one check: the same reason after "<code> at <location>: "
    assert in_file["message"].split(": ", 1)[1] == in_doc["message"].split(": ", 1)[1]


def test_syntax_errors_name_the_broken_file(capsys, tmp_path, chain2_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"carrier": ["1"],\n')
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"1": "1", "2": "2"}))
    code, records = run(capsys, "hom", "--check", str(map_path), str(broken), chain2_path)
    assert code == 2
    assert (records[0]["code"], records[0]["location"]) == ("syntax", f"{broken} line 2 column 1")

    doc = tmp_path / "f.json"
    doc.write_text(json.dumps({"source": "broken.json", "target": "c2.json", "map": {}}))
    for command in ("equalizer", "coequalizer", "pullback"):
        code, records = run(capsys, command, str(doc), str(doc))
        assert code == 2
        assert (records[0]["code"], records[0]["location"]) == (
            "syntax",
            f"{broken} line 2 column 1",
        )

    doc.write_text('{"source": ')
    code, records = run(capsys, "equalizer", str(doc), str(doc))
    assert (records[0]["code"], records[0]["location"]) == ("syntax", f"{doc} line 1 column 12")


def test_output_bytes_deterministic(capsys, chain3_path):
    main(["verify", chain3_path])
    first = capsys.readouterr().out
    main(["verify", chain3_path])
    second = capsys.readouterr().out
    assert first == second


def _seeded_size3_documents(corpus3, count=40):
    """Seeded size-3 documents under three label sets, the zero anywhere: random tables and
    corpus models, three in four with a membership block over {0, 1/2, 1}."""
    rng = random.Random(20261019)
    docs = []
    for i in range(count):
        labels = rng.choice([("0", "1", "2"), ("x", "y", "z"), ("O", "a", "b")])
        if i % 2:
            masks = rng.choice(corpus3.models).table
        else:
            masks = [rng.randrange(1, 8) for _ in range(9)]
        doc = {
            "carrier": list(labels),
            "zero": rng.choice(labels),
            "table": {
                f"{labels[p // 3]},{labels[p % 3]}": [labels[t] for t in range(3) if m >> t & 1]
                for p, m in enumerate(masks)
            },
        }
        if i % 4 != 3:
            doc["mu"] = {lab: rng.choice(["0", "1/2", "1"]) for lab in labels}
        docs.append(doc)
    return docs


def _verify_digest(capsys, argvs) -> tuple[list[int], str]:
    codes, digest = [], hashlib.sha256()
    for argv in argvs:
        codes.append(main(argv))
        digest.update(capsys.readouterr().out.encode())
    return codes, digest.hexdigest()


def test_verify_output_is_frozen_on_seeded_size3_documents(capsys, tmp_path, corpus3):
    argvs = []
    for i, doc in enumerate(_seeded_size3_documents(corpus3)):
        path = tmp_path / f"d{i}.json"
        path.write_text(json.dumps(doc))
        argvs.append(["verify", *["--strict-hk4"] * (i % 4 < 2), str(path)])
    codes, digest = _verify_digest(capsys, argvs)
    assert "".join(map(str, codes)) == "1111111111111111111011101111111011111111"
    assert digest == "46cac74ad7e50481b62088415036e69a4e6fbdcc0d35babd4f9b13b34c093127"


def test_verify_output_is_frozen_on_the_product_of_two_4_chains(capsys, tmp_path):
    chain = tmp_path / "c4.json"
    main(["example", "--chain", "4"])
    chain.write_text(capsys.readouterr().out)
    main(["product", str(chain), str(chain)])
    record = json.loads(capsys.readouterr().out)
    path = tmp_path / "p16.json"
    path.write_text(json.dumps(record["object"]))
    assert len(record["object"]["carrier"]) == 16
    argvs = [["verify", str(path)], ["verify", "--strict-hk4", str(path)]]
    codes, digest = _verify_digest(capsys, argvs)
    assert codes == [1, 1]
    assert digest == "214927053c15f49adebb190dda55a1dc062c5316c9510d9e61b02ba2b1326165"


_C2 = structure_to_dict(chain_example(2))
_T2 = _C2["table"]
_TWO = '{"carrier":["O","a"],"zero":"O","table":{"O,O":["O"],"O,a":["O"],"a,O":["a"],%s}%s}'

# One malformed document per line, each with the whole record `verify` prints for it.
# Every structure-document code of docs/format.md appears; `too-large` has its own tests.
MALFORMED_DOCUMENTS = [
    ('{"carrier": ["1"],\n', "syntax", "<file> line 2 column 1",
     "Expecting property name enclosed in double quotes"),
    ([], "shape", "document", "top level must be an object"),
    ({k: v for k, v in _C2.items() if k != "zero"}, "shape", "document",
     "missing required key 'zero'"),
    (dict(_C2, extra=1), "shape", "document", "unknown keys ['extra']"),
    (dict(_C2, carrier="12"), "carrier", "document.carrier",
     "carrier must be a non-empty list of non-empty strings"),
    (dict(_C2, carrier=[]), "carrier", "document.carrier",
     "carrier must be a non-empty list of non-empty strings"),
    (dict(_C2, carrier=["", "2"]), "carrier", "document.carrier",
     "carrier must be a non-empty list of non-empty strings"),
    (dict(_C2, carrier=[1, "2"]), "carrier", "document.carrier",
     "carrier must be a non-empty list of non-empty strings"),
    (dict(_C2, carrier=["1", "1"]), "carrier", "document.carrier",
     "carrier labels must be distinct"),
    (dict(_C2, carrier=["1", "a,b"]), "label-comma", "document.carrier",
     "label 'a,b' contains a comma"),
    (dict(_C2, zero="9"), "zero-unknown", "document.zero", "zero '9' is not a carrier label"),
    (dict(_C2, zero=1), "zero-unknown", "document.zero", "zero 1 is not a carrier label"),
    (dict(_C2, table=[]), "shape", "document.table", "table must be an object"),
    (dict(_C2, table=dict(_T2, **{"1,1,1": ["1"]})), "shape", "document.table['1,1,1']",
     "cell keys must be 'x,y' pairs"),
    (dict(_C2, table=dict(_T2, **{"1,7": ["1"]})), "unknown-label", "document.table['1,7']",
     "label '7' not in carrier"),
    (dict(_C2, table=dict(_T2, **{"1,1": "1"})), "shape", "document.table['1,1']",
     "cell value must be a label list"),
    (dict(_C2, table=dict(_T2, **{"2,2": []})), "empty-cell", "document.table['2,2']",
     "empty hyperoperation cell"),
    (dict(_C2, table=dict(_T2, **{"1,1": ["7"]})), "unknown-label", "document.table['1,1']",
     "label '7' not in carrier"),
    (dict(_C2, table=dict(_T2, **{"1,1": [1]})), "unknown-label", "document.table['1,1']",
     "label 1 not in carrier"),
    (dict(_C2, table={"1,1": ["1"]}), "table-incomplete", "document.table",
     "table has 1 of 4 required cells"),
    (dict(_C2, mu=["1", "1/2"]), "shape", "document.mu", "mu must be an object"),
    (dict(_C2, mu={"1": "1"}), "mu-incomplete", "document.mu", "mu missing ['2']"),
    (dict(_C2, mu={"1": "1", "2": "1/2", "3": "0"}), "unknown-label", "document.mu",
     "mu names unknown labels ['3']"),
    (dict(_C2, mu={"1": "1", "2": 0.5}), "mu-syntax", "document.mu['2']",
     "mu values must be rational strings"),
    (dict(_C2, mu={"1": "1", "2": "half"}), "mu-syntax", "document.mu['2']",
     "bad membership value 'half': Invalid literal for Fraction: 'half'"),
    (dict(_C2, mu={"1": "1", "2": "1/0"}), "mu-syntax", "document.mu['2']",
     "bad membership value '1/0': Fraction(1, 0)"),
    (dict(_C2, mu={"1": "1", "2": "3/2"}), "mu-range", "document.mu['2']",
     "membership value 3/2 outside [0, 1]"),
    (dict(_C2, mu={"1": "1", "2": "-1/2"}), "mu-range", "document.mu['2']",
     "membership value -1/2 outside [0, 1]"),
    # a key given twice, whichever value comes last (alone, "a,a": ["a"] fails HK3)
    (_TWO % ('"a,a":["O"],"a,a":["a"]', ""), "shape", "<file>", "repeated key 'a,a'"),
    (_TWO % ('"a,a":["a"],"a,a":["O"]', ""), "shape", "<file>", "repeated key 'a,a'"),
    (_TWO % ('"a,a":["O"]', ',"mu":{"O":"1","a":"1/2","a":"1"}'), "shape", "<file>",
     "repeated key 'a'"),
]


@pytest.mark.parametrize("doc, code, location, reason", MALFORMED_DOCUMENTS)
def test_malformed_documents_print_frozen_records(capsys, tmp_path, doc, code, location, reason):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    location = location.replace("<file>", str(path))
    record = {
        "code": code,
        "location": location,
        "message": f"{code} at {location}: {reason}",
        "record": "input-error",
    }
    assert capsys.readouterr().out == json.dumps(record, separators=(",", ":")) + "\n"


def test_product_past_the_bound_exits_two_before_building(capsys, tmp_path):
    assert main(["example", "--chain", "9"]) == 0
    path = tmp_path / "c9.json"
    path.write_text(capsys.readouterr().out)
    start = time.perf_counter()
    code, records = run(capsys, "product", *[str(path)] * 4)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert records == [
        {
            "record": "input-error",
            "message": "carrier size 6561 exceeds the product bound 256; "
            "the table grows with the square of the carrier",
            "code": "too-large",
            "location": "carrier",
        }
    ]


def test_hom_enumeration_past_the_bound_exits_two_before_trying_a_map(capsys, tmp_path):
    assert main(["example", "--chain", "16"]) == 0
    path = tmp_path / "c16.json"
    path.write_text(capsys.readouterr().out)
    start = time.perf_counter()
    code, records = run(capsys, "hom", "--enumerate", str(path), str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert records == [
        {
            "record": "input-error",
            "message": "16^15 zero-fixing maps exceed the hom enumeration bound 262144",
            "code": "too-large",
            "location": "carrier",
        }
    ]


def test_verify_past_the_axiom_check_bound_exits_two_after_parsing(capsys, tmp_path):
    c16 = chain_example(16)
    path = tmp_path / "c16xc16.json"
    path.write_text(render_structure(product([c16, c16]).object))
    start = time.perf_counter()
    code, records = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 10.0  # parsing the 256 elements takes about 1 s
    assert code == 2
    assert records == [
        {
            "record": "input-error",
            "message": "axiom checks are limited to carriers of at most 64 elements, not 256",
            "code": "too-large",
            "location": "carrier",
        }
    ]


@pytest.mark.parametrize(
    "argv, code, location, message",
    [
        (["enumerate", "--size", "4"], "too-large", "--size",
         "exhaustive enumeration is limited to sizes 1..3"),
        (["enumerate", "--size", "0"], "carrier", "--size",
         "exhaustive enumeration is limited to sizes 1..3"),
        (["example", "--chain", "0"], "carrier", "--chain", "chain length must be at least 1"),
        (["cut", "--alpha", "2"], "mu-range", "--alpha", "membership value 2 outside [0, 1]"),
        (["cut", "--alpha", "half"], "mu-syntax", "--alpha",
         "bad membership value 'half': Invalid literal for Fraction: 'half'"),
        (["example", "--chain", "20000"], "too-large", "--chain",
         "chain length 20000 exceeds 256"),
    ],
)
def test_bad_flag_values_are_located_at_the_flag(capsys, chain3_path, argv, code, location, message):
    if argv[0] == "cut":
        argv = [*argv, chain3_path]
    exit_code, records = run(capsys, *argv)
    assert exit_code == 2
    assert records == [
        {"record": "input-error", "message": message, "code": code, "location": location}
    ]


def test_unreadable_input_is_coded_at_its_path(capsys, tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    for path in (str(tmp_path / "missing.json"), str(binary)):
        code, records = run(capsys, "verify", path)
        assert code == 2
        assert (records[0]["code"], records[0]["location"]) == ("unreadable", path)
        assert records[0]["message"].startswith(f"cannot read {path}: ")


def test_a_missing_mu_block_is_coded_at_the_file_or_endpoint(capsys, tmp_path):
    crisp = chain_example(2).alg
    path = tmp_path / "crisp.json"
    path.write_text(render_structure(crisp))
    f = hom_doc(tmp_path, "f.json", crisp, crisp, {"1": "1", "2": "2"})
    for argv, where in [
        (["cut", "--alpha", "1/2", str(path)], str(path)),
        (["product", str(path)], str(path)),
        (["equalizer", f, f], f"{f}.source"),
        (["pullback", f, f], f"{f}.source"),
    ]:
        code, records = run(capsys, *argv)
        assert code == 2
        assert records == [
            {
                "record": "input-error",
                "message": f"{where} has no mu block; this command needs fuzzy structures",
                "code": "mu-incomplete",
                "location": where,
            }
        ]


def test_endpoint_mismatches_are_coded_at_the_second_morphism(capsys, tmp_path):
    c2, c3 = chain_example(2), chain_example(3)
    ident = hom_doc(tmp_path, "id.json", c2, c2, {"1": "1", "2": "2"})
    into_c3 = hom_doc(tmp_path, "g.json", c2, c3, {"1": "1", "2": "2"})
    out_of_c3 = hom_doc(tmp_path, "h.json", c3, c2, {"1": "1", "2": "2", "3": "2"})
    share_both = "the two morphisms must share source and target"
    both = hom_doc(tmp_path, "k.json", c3, c3, {"1": "1", "2": "2", "3": "3"})
    for argv, message, where in [
        (["equalizer", ident, into_c3], share_both, f"{into_c3}.target"),
        (["equalizer", ident, both], share_both, f"{both}.source"),  # the source is named first
        (["coequalizer", ident, out_of_c3], share_both, f"{out_of_c3}.source"),
        (["pullback", ident, into_c3], "the two morphisms must share their target",
         f"{into_c3}.target"),
    ]:
        code, records = run(capsys, *argv)
        assert code == 2
        assert records == [
            {"record": "input-error", "message": message, "code": "endpoint-mismatch",
             "location": where}
        ]


@pytest.mark.parametrize("command", ["equalizer", "coequalizer", "pullback"])
def test_a_map_the_library_refuses_is_coded_at_its_file(capsys, tmp_path, command):
    c2 = chain_example(2)
    lowered = FuzzyHyperBCK(c2.alg, (Fraction(1, 2), Fraction(1)))  # the zero map lowers mu(2)
    swap = hom_doc(tmp_path, "swap.json", c2, c2, {"1": "2", "2": "1"})
    ident = hom_doc(tmp_path, "id.json", lowered, lowered, {"1": "1", "2": "2"})
    to_zero = hom_doc(tmp_path, "zero.json", lowered, lowered, {"1": "1", "2": "1"})
    lowers = "cospan maps" if command == "pullback" else "both maps"
    for f, g, code, message, where in [
        (swap, swap, "not-hom", "map is not a homomorphism", swap),
        (ident, to_zero, "not-fuzzy-hom", f"{lowers} must be fuzzy homomorphisms", to_zero),
        (to_zero, ident, "not-fuzzy-hom", f"{lowers} must be fuzzy homomorphisms", to_zero),
    ]:
        exit_code, records = run(capsys, command, f, g)
        assert exit_code == 2
        assert records == [
            {"record": "input-error", "message": message, "code": code, "location": where}
        ]


# stdout sha256 of the document commands, computed before the render pieces were cached
_FROZEN_DOCUMENT_DIGESTS = {
    "enumerate --size 1": "eb0c451a9565112affd4de9517853c4573a15cef59473da9c0a0deeca5c7a0c7",
    "enumerate --size 1 --up-to-iso": "eb0c451a9565112affd4de9517853c4573a15cef59473da9c0a0deeca5c7a0c7",
    "enumerate --size 2": "a6095107e4ed4fbac32e49f4ca534de85471a1ec1c76baf7475e5abe44b4121a",
    "enumerate --size 2 --up-to-iso": "a6095107e4ed4fbac32e49f4ca534de85471a1ec1c76baf7475e5abe44b4121a",
    "enumerate --size 3": "51ff3556ab20c671ce3af104a34470da8e4a772cb36c59f25f166fe0b4f0ee39",
    "enumerate --size 3 --up-to-iso": "30a359b993738d919368ab70f039dcf5103b5a758ebe2e2e7ddffec1d122428d",
    "example --chain 1": "b205b9202d659c8161895d0ba878374d42614c4e1848b5bc1bdd997872d9b784",
    "example --chain 2": "d39bbfcc911dd99b9f680ba7bcc3dde4c78ee5af7f0ee5644a2958210ed5a824",
    "example --chain 3": "0c0d2f4a971135a9afa6b568996af1e76ee1856cc50562c66fe3681ae0102e10",
    "example --chain 4": "e550145ae48cafee314084301b658b4bf7dde469dc57f1cf290b2e7ab416692c",
}


@pytest.mark.parametrize("command", sorted(_FROZEN_DOCUMENT_DIGESTS))
def test_document_commands_print_frozen_bytes(capsys, command):
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _FROZEN_DOCUMENT_DIGESTS[command]


# stdout sha256 of ``--help`` at 80 columns, for the top level and the three pair commands
_FROZEN_HELP_DIGESTS = {
    "": "77a4c6742b833ed3a0c4632c44de5d1b57fc56405274e0c70ad7bb44386a18c6",
    "equalizer": "204b8c26f35479dea5036734ed1d62d340c247db58afa91593bb52154e12264f",
    "coequalizer": "eea5f71d53cda5eabeb83c86b3400c07ffa2037989690d83e3fc2ea849ac7547",
    "pullback": "ba55509adcbe7593898bfa51547285cd746127d5072140dde29d21317e25f0c4",
}


@pytest.mark.parametrize("command", sorted(_FROZEN_HELP_DIGESTS))
def test_help_prints_frozen_bytes(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main([*command.split(), "--help"])
    assert done.value.code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _FROZEN_HELP_DIGESTS[command]


def test_a_reader_closing_stdout_early_stops_the_cli_quietly_with_141():
    # The full size-3 corpus is megabytes of output, far past the pipe's buffer,
    # so the writes after the reader closes the pipe fail.
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "hyperbck.cli", "enumerate", "--size", "3"]
    env = {**os.environ, "PYTHONPATH": path}
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert json.loads(first)["carrier"] == ["O", "a", "b"]
    assert code == 141, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_an_unbuffered_example_stops_with_141_when_the_reader_closes_early():
    # Unbuffered, one write of the whole 69 MB document would lose the short count the
    # closed pipe returns; written in pieces, the next piece's write fails instead.
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "hyperbck.cli", "example", "--chain", "256"]
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": "1"}
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert head.startswith(b'{\n  "carrier": [')
    assert code == 141, err
    assert "Traceback" not in err and "Exception ignored" not in err
