"""Command-line behavior: exit codes, record streams, determinism, library agreement."""

from __future__ import annotations

import json

import pytest

from hyperbck import HyperBCK, validate_hyper_bck
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
            "message": "carrier size 6 exceeds the congruence enumeration bound 5; "
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
