"""Structure document format: lossless JSON serialization of algebras.

A structure document is a JSON object with this shape (grammar in the
repository's ``docs/format.md``):

    {
      "carrier": ["1", "2", "3"],        # ordered distinct labels, no commas
      "zero": "1",                       # one of the carrier labels
      "table": {"1,2": ["1"], ...},      # exactly one "x,y" key per pair,
                                         # each value a non-empty label list
      "mu": {"1": "1", "2": "1/2", ...}  # optional: rational strings p/q,
    }                                    # bare integers for 0 and 1

``parse(render(x)) == x`` exactly: carrier order, zero, cells and
membership values all round-trip.  No floating point anywhere.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from .core import Carrier, HyperBCK, InputError, iter_bits
from .fuzzy import FuzzyHyperBCK, format_fuzzy, fuzzy_value
from .morphisms import Hom


class FormatError(InputError):
    """A document error with a stable code and a location within the text."""

    def __init__(self, code: str, location: str, message: str):
        super().__init__(f"{code} at {location}: {message}", code, location)


Structure = HyperBCK | FuzzyHyperBCK


def _expect(cond: bool, code: str, location: str, message: str) -> None:
    if not cond:
        raise FormatError(code, location, message)


def structure_from_dict(doc: Any, where: str = "document") -> Structure:
    _expect(isinstance(doc, dict), "shape", where, "top level must be an object")
    for key in ("carrier", "zero", "table"):
        _expect(key in doc, "shape", where, f"missing required key {key!r}")
    unknown = set(doc) - {"carrier", "zero", "table", "mu"}
    _expect(not unknown, "shape", where, f"unknown keys {sorted(unknown)}")

    carrier_raw = doc["carrier"]
    _expect(
        isinstance(carrier_raw, list)
        and carrier_raw
        and all(isinstance(lab, str) and lab for lab in carrier_raw),
        "carrier",
        f"{where}.carrier",
        "carrier must be a non-empty list of non-empty strings",
    )
    _expect(
        len(set(carrier_raw)) == len(carrier_raw),
        "carrier",
        f"{where}.carrier",
        "carrier labels must be distinct",
    )
    for lab in carrier_raw:
        _expect("," not in lab, "label-comma", f"{where}.carrier", f"label {lab!r} contains a comma")
    labels = tuple(carrier_raw)

    zero = doc["zero"]
    _expect(
        isinstance(zero, str) and zero in labels,
        "zero-unknown",
        f"{where}.zero",
        f"zero {zero!r} is not a carrier label",
    )
    carrier = Carrier(labels, labels.index(zero))

    table_raw = doc["table"]
    _expect(isinstance(table_raw, dict), "shape", f"{where}.table", "table must be an object")
    n = len(labels)
    cells = [0] * (n * n)
    seen = set()
    for key, value in table_raw.items():
        loc = f"{where}.table[{key!r}]"
        parts = key.split(",")
        _expect(len(parts) == 2, "shape", loc, "cell keys must be 'x,y' pairs")
        for lab in parts:
            _expect(lab in labels, "unknown-label", loc, f"label {lab!r} not in carrier")
        _expect(isinstance(value, list), "shape", loc, "cell value must be a label list")
        _expect(bool(value), "empty-cell", loc, "empty hyperoperation cell")
        mask = 0
        for lab in value:
            _expect(
                isinstance(lab, str) and lab in labels,
                "unknown-label",
                loc,
                f"label {lab!r} not in carrier",
            )
            mask |= 1 << labels.index(lab)
        x, y = labels.index(parts[0]), labels.index(parts[1])
        _expect((x, y) not in seen, "shape", loc, "duplicate cell key")
        seen.add((x, y))
        cells[x * n + y] = mask
    _expect(
        len(seen) == n * n,
        "table-incomplete",
        f"{where}.table",
        f"table has {len(seen)} of {n * n} required cells",
    )
    alg = HyperBCK(carrier, tuple(cells))

    if "mu" not in doc:
        return alg
    mu_raw = doc["mu"]
    _expect(isinstance(mu_raw, dict), "shape", f"{where}.mu", "mu must be an object")
    missing = set(labels) - set(mu_raw)
    _expect(not missing, "mu-incomplete", f"{where}.mu", f"mu missing {sorted(missing)}")
    extra = set(mu_raw) - set(labels)
    _expect(not extra, "unknown-label", f"{where}.mu", f"mu names unknown labels {sorted(extra)}")
    mu = []
    for lab in labels:
        loc = f"{where}.mu[{lab!r}]"
        value = mu_raw[lab]
        _expect(isinstance(value, str), "mu-syntax", loc, "mu values must be rational strings")
        try:
            mu.append(fuzzy_value(value))
        except InputError as exc:
            code = "mu-range" if "outside" in str(exc) else "mu-syntax"
            raise FormatError(code, loc, str(exc)) from None
    return FuzzyHyperBCK(alg, mu)


def structure_to_dict(obj: Structure) -> dict:
    alg = obj.alg if isinstance(obj, FuzzyHyperBCK) else obj
    labels = alg.carrier.labels
    for lab in labels:
        if "," in lab:
            raise FormatError("label-comma", "carrier", f"label {lab!r} contains a comma")
    n = len(labels)
    table = {}
    for x in range(n):
        for y in range(n):
            cell = alg.table[x * n + y]
            table[f"{labels[x]},{labels[y]}"] = [labels[t] for t in iter_bits(cell)]
    doc: dict = {"carrier": list(labels), "zero": alg.carrier.zero_label, "table": table}
    if isinstance(obj, FuzzyHyperBCK):
        doc["mu"] = {lab: format_fuzzy(obj.mu[i]) for i, lab in enumerate(labels)}
    return doc


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("syntax", f"line {exc.lineno} column {exc.colno}", exc.msg) from None


def parse_structure(text: str) -> Structure:
    return structure_from_dict(_load_json(text))


def render_structure(obj: Structure, pretty: bool = False) -> str:
    doc = structure_to_dict(obj)
    if pretty:
        return json.dumps(doc, indent=2) + "\n"
    return json.dumps(doc, separators=(",", ":"))


def parse_hom_document(
    text: str, load: Callable[[str], Structure] | None = None, where: str = "document"
) -> tuple[Hom, Structure, Structure]:
    """Parse a morphism document: source, target, and a label map.

    ``source``/``target`` may be inline structure objects or, when a
    ``load`` callback is supplied, path strings resolved through it.
    The map is checked for totality; homomorphism-ness is not decided here.
    """
    doc = _load_json(text)
    _expect(isinstance(doc, dict), "shape", where, "top level must be an object")
    for key in ("source", "target", "map"):
        _expect(key in doc, "shape", where, f"missing required key {key!r}")

    def endpoint(key: str) -> Structure:
        value = doc[key]
        if isinstance(value, str):
            _expect(load is not None, "shape", f"{where}.{key}", "path references not allowed here")
            assert load is not None
            return load(value)
        return structure_from_dict(value, f"{where}.{key}")

    src = endpoint("source")
    dst = endpoint("target")
    mapping = doc["map"]
    _expect(
        isinstance(mapping, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()),
        "shape",
        f"{where}.map",
        "map must be an object of label pairs",
    )
    src_alg = src.alg if isinstance(src, FuzzyHyperBCK) else src
    dst_alg = dst.alg if isinstance(dst, FuzzyHyperBCK) else dst
    hom = Hom.from_labels(src_alg, dst_alg, mapping)
    return hom, src, dst
