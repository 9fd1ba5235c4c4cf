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
from functools import partial
from operator import add
from typing import Any, Callable

from .core import Carrier, HyperBCK, InputError, _Kept, iter_bits
from .fuzzy import FuzzyHyperBCK, format_fuzzy
from .morphisms import Hom


class FormatError(InputError):
    """A document error with a stable code and a location within the text."""

    def __init__(self, code: str, location: str, message: str):
        super().__init__(f"{code} at {location}: {message}", code, location)


Structure = HyperBCK | FuzzyHyperBCK

_COMPACT = (",", ":")
_LAYOUT = {False: ("", "", ":"), True: ("\n  ", "\n    ", ": ")}  # breaks at depth 1, 2; colon
RENDER_TEXTS_KEPT = 1 << 17  # key and cell texts the render pieces hold: 65,536 keys at 256 elements


def _expect(cond: bool, code: str, location: str, message: str) -> None:
    if not cond:
        raise FormatError(code, location, message)


def _comma_free(labels: Any, location: str) -> None:
    """Labels appear inside ``"x,y"`` cell keys, so none may hold a comma."""
    for lab in labels:
        if isinstance(lab, str) and "," in lab:
            raise FormatError("label-comma", location, f"label {lab!r} contains a comma")


def structure_from_dict(doc: Any, where: str = "document") -> Structure:
    """The structure a decoded document names.  Only its JSON shape is checked here: the
    library constructors own every other rule, and their refusals are located in ``where``."""
    _expect(isinstance(doc, dict), "shape", where, "top level must be an object")
    for key in ("carrier", "zero", "table"):
        _expect(key in doc, "shape", where, f"missing required key {key!r}")
    unknown = set(doc) - {"carrier", "zero", "table", "mu"}
    _expect(not unknown, "shape", where, f"unknown keys {sorted(unknown)}")
    if isinstance(doc["carrier"], list):
        _comma_free(doc["carrier"], f"{where}.carrier")
    table = doc["table"]
    _expect(isinstance(table, dict), "shape", f"{where}.table", "table must be an object")
    cells = {}
    for key, value in table.items():
        loc = f"{where}.table[{key!r}]"
        pair = tuple(key.split(","))
        _expect(len(pair) == 2, "shape", loc, "cell keys must be 'x,y' pairs")
        _expect(isinstance(value, list), "shape", loc, "cell value must be a label list")
        cells[pair] = value
    mu = doc.get("mu")
    if "mu" in doc:
        _expect(isinstance(mu, dict), "shape", f"{where}.mu", "mu must be an object")
        for lab, value in mu.items():
            loc = f"{where}.mu[{lab!r}]"
            _expect(isinstance(value, str), "mu-syntax", loc, "mu values must be rational strings")
    try:
        alg = HyperBCK.from_sets(doc["carrier"], doc["zero"], cells)
        return FuzzyHyperBCK.from_map(alg, mu) if "mu" in doc else alg
    except InputError as exc:
        raise FormatError(exc.code, f"{where}.{exc.location}", str(exc)) from None


def structure_to_dict(obj: Structure) -> dict:
    alg = obj.alg if isinstance(obj, FuzzyHyperBCK) else obj
    labels = alg.carrier.labels
    _comma_free(labels, "carrier")
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


def _unique_keys(where: str, pairs: list[tuple[str, Any]]) -> dict:
    """A decoded JSON object; one that repeats a key is refused at ``where``, naming the key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise FormatError("shape", where, f"repeated key {key!r}")
    return obj


def _load_json(text: str, source: str | None = None) -> Any:
    """Decode JSON text; a syntax error is located by line and column, after ``source``."""
    try:
        return json.loads(text, object_pairs_hook=partial(_unique_keys, source or "document"))
    except json.JSONDecodeError as exc:
        at = f"line {exc.lineno} column {exc.colno}"
        raise FormatError("syntax", f"{source} {at}" if source else at, exc.msg) from None


def parse_structure(text: str, source: str | None = None) -> Structure:
    """The structure a document names; a syntax error is located after ``source``."""
    return structure_from_dict(_load_json(text, source))


def _dumps(value: Any, pretty: bool, depth: int = 0) -> str:
    """``json.dumps`` of ``value`` as it reads at ``depth`` in a document, compact unless
    ``pretty``: indented by 2, its inner lines shifted by the depth's indent."""
    if not pretty:
        return json.dumps(value, separators=_COMPACT)
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


@partial(_Kept, limit=RENDER_TEXTS_KEPT, maxsize=16, weigh=lambda _, p: len(p[1]) + p[2].limit)
def _render_pieces(key: tuple[Carrier, bool]) -> tuple[str, list[str], _Kept]:
    """The head text up to the table's first key, the ``"x,y":`` key text of each cell in
    table order, and the cell texts by mask, filled on lookup, of documents on a carrier.

    Each piece is ``json.dumps`` of the value ``structure_to_dict`` puts there, so the
    escapes match.  The cell texts have room for as many as the keys, or for what the keys
    leave of the least charge, and the pieces are charged their keys and that room.
    """
    carrier, pretty = key
    labels = carrier.labels
    _comma_free(labels, "carrier")
    at1, at2, colon = _LAYOUT[pretty]
    carrier_text = _dumps(list(labels), pretty, 1)
    zero_text = json.dumps(carrier.zero_label)
    head = f'{{{at1}"carrier"{colon}{carrier_text},{at1}"zero"{colon}{zero_text}'
    head += f',{at1}"table"{colon}{{{at2}'
    keys = [json.dumps(f"{x},{y}") + colon for x in labels for y in labels]
    room = max(_render_pieces.least - len(keys), len(keys))
    cells = _Kept(lambda mask: _dumps([labels[t] for t in iter_bits(mask)], pretty, 2), room, room)
    return head, keys, cells


def render_structure(obj: Structure, pretty: bool = False) -> str:
    """The document text of ``obj``: ``json.dumps`` of :func:`structure_to_dict`, compact
    unless ``pretty`` (indented by 2, with a final newline).  The text is joined from
    pieces built once per carrier and layout."""
    alg = obj.alg if isinstance(obj, FuzzyHyperBCK) else obj
    carrier = alg.carrier
    end = "\n" if pretty else ""
    head, keys, cells = _render_pieces[carrier, pretty]
    at1, at2, colon = _LAYOUT[pretty]
    text = head + f",{at2}".join(map(add, keys, map(cells.__getitem__, alg.table))) + at1 + "}"
    if isinstance(obj, FuzzyHyperBCK):
        mu = {lab: format_fuzzy(v) for lab, v in zip(carrier.labels, obj.mu)}
        text += f",{at1}\"mu\"{colon}" + _dumps(mu, pretty, 1)
    return text + end + "}" + end


def parse_hom_document(
    text: str, load: Callable[[str], Structure] | None = None, where: str = "document"
) -> tuple[Hom, Structure, Structure]:
    """Parse a morphism document: source, target, and a label map.

    ``source``/``target`` may be inline structure objects or, when a
    ``load`` callback is supplied, path strings resolved through it.
    The map is checked for totality; homomorphism-ness is not decided here.
    """
    doc = _load_json(text, where)
    _expect(isinstance(doc, dict), "shape", where, "top level must be an object")
    for key in ("source", "target", "map"):
        _expect(key in doc, "shape", where, f"missing required key {key!r}")

    def endpoint(key: str) -> Structure:
        value = doc[key]
        if isinstance(value, str):
            _expect(load is not None, "shape", f"{where}.{key}", "path references not allowed here")
            return load(value)
        return structure_from_dict(value, f"{where}.{key}")

    src = endpoint("source")
    dst = endpoint("target")
    src_alg = src.alg if isinstance(src, FuzzyHyperBCK) else src
    dst_alg = dst.alg if isinstance(dst, FuzzyHyperBCK) else dst
    return _hom_from_label_map(doc["map"], src_alg, dst_alg, f"{where}.map"), src, dst


def _hom_from_label_map(mapping: Any, source: HyperBCK, target: HyperBCK, where: str) -> Hom:
    """The map a label object names; any refusal is located at ``where``."""
    _expect(
        isinstance(mapping, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()),
        "shape",
        where,
        "map must be an object of label pairs",
    )
    try:
        return Hom.from_labels(source, target, mapping)
    except InputError as exc:
        raise FormatError(exc.code, where, str(exc)) from None
