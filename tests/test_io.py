"""Document format: lossless round trips and distinct, located error codes."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from conftest import grid_assignments, zero_moved_to
import hyperbck.io as library_io
from hyperbck import Carrier, FuzzyHyperBCK, HyperBCK, InputError
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


_CELLS2 = {
    tuple(key.split(",")): value
    for key, value in structure_to_dict(chain_example(2))["table"].items()
}


def _with(cells=_CELLS2, **changes):
    return {"carrier": ["1", "2"], "zero": "1", "cells": cells, **changes}


@pytest.mark.parametrize(
    "given, code, location",
    [
        (_with(carrier=[]), "carrier", "carrier"),
        (_with(carrier=["1", "1"]), "carrier", "carrier"),
        (_with(carrier=[1, "2"]), "carrier", "carrier"),
        (_with(zero="9"), "zero-unknown", "zero"),
        (_with(cells={**_CELLS2, ("1", "7"): ["1"]}), "unknown-label", "table['1,7']"),
        (_with(cells={**_CELLS2, ("1", "1"): ["7"]}), "unknown-label", "table['1,1']"),
        (_with(cells={**_CELLS2, ("2", "2"): []}), "empty-cell", "table['2,2']"),
        (_with(cells={("1", "1"): ["1"]}), "table-incomplete", "table"),
        (_with(mu={"1": "1"}), "mu-incomplete", "mu"),
        (_with(mu={"1": "1", "2": "0", "3": "0"}), "unknown-label", "mu"),
        (_with(mu={"1": "1", "2": "half"}), "mu-syntax", "mu['2']"),
        (_with(mu={"1": "1", "2": "1/0"}), "mu-syntax", "mu['2']"),
        (_with(mu={"1": "1", "2": "3/2"}), "mu-range", "mu['2']"),
    ],
)
def test_library_and_parser_refuse_with_one_code(given, code, location):
    """Each rule has one implementation: the parser only adds ``document.`` to its location."""
    with pytest.raises(InputError) as lib:
        alg = HyperBCK.from_sets(given["carrier"], given["zero"], given["cells"])
        if "mu" in given:
            FuzzyHyperBCK.from_map(alg, given["mu"])
    assert (lib.value.code, lib.value.location) == (code, location)
    doc = {
        "carrier": given["carrier"],
        "zero": given["zero"],
        "table": {f"{x},{y}": value for (x, y), value in given["cells"].items()},
    }
    if "mu" in given:
        doc["mu"] = given["mu"]
    err = expect_code(json.dumps(doc), code)
    assert err.location == f"document.{location}"
    assert str(err) == f"{code} at document.{location}: {lib.value}"


def test_a_repeated_key_is_refused_at_the_source_or_document():
    c2 = render_structure(chain_example(2))
    text = c2.replace('"table":{', '"table":{"2,2":["1"],', 1)
    assert text != c2
    for source, where in ((None, "document"), ("c2.json", "c2.json")):
        with pytest.raises(FormatError) as info:
            parse_structure(text, source)
        assert (info.value.code, info.value.location) == ("shape", where)
        assert str(info.value) == f"shape at {where}: repeated key '2,2'"
    hom = '{"source": %s, "target": %s, "map": {"1": "1", "1": "1", "2": "2"}}' % (c2, text)
    with pytest.raises(FormatError, match=r"^shape at f\.json: repeated key '2,2'$"):
        parse_hom_document(hom, where="f.json")  # the first repeat decoded is refused


def test_parse_structure_names_its_source_in_syntax_errors():
    with pytest.raises(FormatError) as exc:
        parse_structure('{"carrier": ', "c2.json")
    assert (exc.value.code, exc.value.location) == ("syntax", "c2.json line 1 column 13")


def test_round_trip_of_the_largest_product():
    # 256 elements, 65,536 cells: label lookups must not scan the carrier
    c16 = chain_example(16)
    obj = product([c16, c16]).object
    back = parse_structure(render_structure(obj))
    assert back == obj and back.alg.carrier.labels == obj.alg.carrier.labels


def _assert_text_is_the_dict_encoding(obj):
    doc = structure_to_dict(obj)
    assert render_structure(obj) == json.dumps(doc, separators=(",", ":"))
    assert render_structure(obj, pretty=True) == json.dumps(doc, indent=2) + "\n"


def test_compact_text_is_the_dict_encoding_on_the_corpus(corpus1, corpus2, corpus3, corpus_le2):
    for alg in (*corpus1, *corpus2, *corpus3):
        _assert_text_is_the_dict_encoding(alg)
    for alg in corpus_le2:
        for fz in grid_assignments(alg):
            _assert_text_is_the_dict_encoding(fz)
        for k in range(1, alg.size):
            moved = zero_moved_to(alg, k)
            _assert_text_is_the_dict_encoding(moved)
            _assert_text_is_the_dict_encoding(FuzzyHyperBCK(moved, (Fraction(1),) * moved.size))
    for alg in random.Random(19).sample(corpus3.models, 200):
        for k in (1, 2):
            _assert_text_is_the_dict_encoding(zero_moved_to(alg, k))


def test_compact_text_is_the_dict_encoding_on_chains_and_the_largest_product():
    for k in range(1, 17):
        chain = chain_example(k)
        _assert_text_is_the_dict_encoding(chain)
        _assert_text_is_the_dict_encoding(chain.alg)
        if k > 1:
            _assert_text_is_the_dict_encoding(zero_moved_to(chain.alg, k - 1))
    c16 = chain_example(16)
    largest = product([c16, c16]).object
    assert largest.alg.size == 256
    _assert_text_is_the_dict_encoding(largest)
    _assert_text_is_the_dict_encoding(largest.alg)


def test_compact_text_escapes_labels_as_the_dict_encoding_does(corpus3_iso):
    label_sets = [
        ("\u00e9", "\u2603", "\U0001f600"),
        ('"', "\\", "\t"),
        ("a", "\u00e9", '"'),
        ("\U0001f600", "\t", "a"),
        ("0", "1", "2"),
    ]
    for i, alg in enumerate(corpus3_iso.models[:300]):  # label sets interleaved: warm pieces
        for labels in label_sets[i % 5 :] + label_sets[: i % 5]:
            relabeled = HyperBCK(Carrier(labels, i % 3), alg.table)
            _assert_text_is_the_dict_encoding(relabeled)
            mu = (Fraction(1), Fraction(1, 3), Fraction(2, 3))
            _assert_text_is_the_dict_encoding(FuzzyHyperBCK(relabeled, mu))
            assert parse_structure(render_structure(relabeled)) == relabeled
    for _ in range(2):  # a refused carrier is refused again, with every other carrier warm
        with pytest.raises(FormatError) as exc:
            render_structure(HyperBCK(Carrier(("a", "x,y"), 0), (1, 1, 2, 1)))
        assert exc.value.code == "label-comma"


def test_render_pieces_stay_within_their_bound():
    store = library_io._render_pieces
    store.clear()
    chains = [chain_example(k) for k in (256, 254, 200, 150, 256, 100, 181, 3, 2)]
    small = [HyperBCK(Carrier(tuple(f"{j}.{i}" for i in range(2)), 0), (1, 1, 2, 1)) for j in range(40)]
    for obj in (*chains, *small, chains[0]):
        render_structure(obj)
        carrier = (obj.alg if isinstance(obj, FuzzyHyperBCK) else obj).carrier
        _, keys, cells = store[carrier, False]  # a hit: the pieces just used
        assert len(cells) <= cells.limit == max(store.least - len(keys), len(keys))
        # each carrier's pieces are charged their keys and the room of their cell texts
        assert store.held == sum(len(k) + c.limit for _, k, c in store.values())
        assert sum(len(k) + len(c) for _, k, c in store.values()) <= store.held
        assert store.held <= library_io.RENDER_TEXTS_KEPT and len(store) <= 16
    # a carrier with more cells than the bound renders from pieces that are not kept
    n = 363
    assert n * n > library_io.RENDER_TEXTS_KEPT
    wide = HyperBCK(Carrier(tuple(map(str, range(n))), 0), (1,) * (n * n))
    before = dict(store), store.held
    text = render_structure(wide)
    assert text == json.dumps(structure_to_dict(wide), separators=(",", ":"))
    assert (dict(store), store.held) == before
