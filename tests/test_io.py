"""Document format: lossless round trips and distinct, located error codes."""

from __future__ import annotations

import json

import pytest

from hyperbck import FuzzyHyperBCK
from hyperbck.category import product
from hyperbck.corpus import chain_example, enumerate_hyper_bck
from hyperbck.io import (
    FormatError,
    parse_hom_document,
    parse_structure,
    render_structure,
    structure_to_dict,
)


def doc_of(obj) -> str:
    return render_structure(obj, pretty=True)


def test_round_trip_trivial_and_chains():
    for k in range(1, 5):
        chain = chain_example(k)
        assert parse_structure(render_structure(chain)) == chain
        assert parse_structure(render_structure(chain, pretty=True)) == chain
        assert parse_structure(render_structure(chain.alg)) == chain.alg


def test_round_trip_corpus_sample(corpus2):
    for alg in corpus2:
        assert parse_structure(render_structure(alg)) == alg


def test_round_trip_product_labels():
    c2 = chain_example(2)
    obj = product([c2, c2]).object
    assert parse_structure(render_structure(obj)) == obj


def test_generator_and_parser_agree():
    text = doc_of(chain_example(3))
    assert parse_structure(text) == chain_example(3)


def test_render_is_deterministic():
    chain = chain_example(3)
    assert render_structure(chain) == render_structure(chain)
    assert "\n" not in render_structure(chain)


def expect_code(text: str, code: str) -> FormatError:
    with pytest.raises(FormatError) as exc:
        parse_structure(text)
    assert exc.value.code == code
    return exc.value


def test_syntax_error_carries_position():
    err = expect_code("{not json", "syntax")
    assert "line 1" in err.location


def test_structural_error_codes():
    base = structure_to_dict(chain_example(2))

    doc = dict(base)
    del doc["zero"]
    expect_code(json.dumps(doc), "shape")

    doc = dict(base, carrier=["1", "1"])
    expect_code(json.dumps(doc), "carrier")

    doc = dict(base, carrier=["1", "a,b"])
    expect_code(json.dumps(doc), "label-comma")

    doc = dict(base, zero="9")
    expect_code(json.dumps(doc), "zero-unknown")

    doc = dict(base, table=dict(base["table"], **{"1,1": ["7"]}))
    expect_code(json.dumps(doc), "unknown-label")

    doc = dict(base, table=dict(base["table"], **{"2,2": []}))
    expect_code(json.dumps(doc), "empty-cell")

    doc = dict(base, table={"1,1": ["1"]})
    expect_code(json.dumps(doc), "table-incomplete")

    doc = dict(base, mu={"1": "1"})
    expect_code(json.dumps(doc), "mu-incomplete")

    doc = dict(base, mu={"1": "1", "2": "3/2"})
    err = expect_code(json.dumps(doc), "mu-range")
    assert "mu['2']" in err.location

    doc = dict(base, mu={"1": "1", "2": "half"})
    expect_code(json.dumps(doc), "mu-syntax")


def test_error_location_names_the_cell():
    base = structure_to_dict(chain_example(2))
    doc = dict(base, table=dict(base["table"], **{"2,2": []}))
    err = expect_code(json.dumps(doc), "empty-cell")
    assert "2,2" in err.location


def test_comma_labels_cannot_render():
    alg = enumerate_hyper_bck(1).models[0]
    from hyperbck import Carrier, HyperBCK

    bad = HyperBCK(Carrier(("x,y",), 0), (1,))
    with pytest.raises(FormatError) as exc:
        render_structure(bad)
    assert exc.value.code == "label-comma"


def test_parse_keeps_mu_presence():
    chain = chain_example(2)
    assert isinstance(parse_structure(render_structure(chain)), FuzzyHyperBCK)
    assert not isinstance(parse_structure(render_structure(chain.alg)), FuzzyHyperBCK)


def test_hom_document_inline_and_by_reference(tmp_path):
    c2 = chain_example(2)
    inline = {
        "source": structure_to_dict(c2),
        "target": structure_to_dict(c2),
        "map": {"1": "1", "2": "1"},
    }
    hom, src, dst = parse_hom_document(json.dumps(inline))
    assert hom.as_label_map() == {"1": "1", "2": "1"}
    assert src == c2 and dst == c2

    ref_path = tmp_path / "c2.json"
    ref_path.write_text(render_structure(c2))
    by_ref = dict(inline, source="c2.json")
    hom2, src2, _ = parse_hom_document(
        json.dumps(by_ref), load=lambda name: parse_structure((tmp_path / name).read_text())
    )
    assert src2 == c2

    with pytest.raises(FormatError) as exc:
        parse_hom_document(json.dumps(by_ref))  # no loader: path refs rejected
    assert exc.value.code == "shape"

    incomplete = dict(inline, map={"1": "1"})
    with pytest.raises(FormatError, match="missing") as exc:
        parse_hom_document(json.dumps(incomplete))
    assert (exc.value.code, exc.value.location) == ("shape", "document.map")
