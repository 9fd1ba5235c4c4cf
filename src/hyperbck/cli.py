"""Command-line surface: validation, cuts, morphism checks, constructions.

Every command emits deterministic JSON records, one per line, on standard
output.  Exit codes: 0 all checks passed or construction succeeded; 1 a
validation or morphism check found violations; 2 malformed input; 3 a
documented construction guarantee failed on the given instance (the
record carries the witness).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .core import ClaimViolation, InputError, ValidationReport, validate_hyper_bck
from .corpus import chain_example, enumerate_hyper_bck
from .category import coequalizer, equalizer, product, pullback
from .fuzzy import FuzzyHyperBCK, format_fuzzy, fuzzy_value, validate_fuzzy
from .io import Structure, _hom_from_label_map, _load_json, parse_hom_document
from .io import render_structure, structure_from_dict, structure_to_dict
from .morphisms import Hom, enumerate_homs, is_fuzzy_hom, is_hom


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return format_fuzzy(value)
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _emit(record: dict) -> None:
    print(json.dumps(_jsonable(record), sort_keys=True, separators=(",", ":")))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_structure(path: str) -> Structure:
    return structure_from_dict(_load_json(_read_text(path), path))


def _as_fuzzy(obj: Structure, path: str) -> FuzzyHyperBCK:
    if not isinstance(obj, FuzzyHyperBCK):
        raise InputError(f"{path} has no mu block; this command needs fuzzy structures")
    return obj


def _load_hom(path: str) -> tuple[Hom, Structure, Structure]:
    text = _read_text(path)
    base = Path(path).parent

    def load_ref(ref: str) -> Structure:
        return _load_structure(str(base / ref))

    return parse_hom_document(text, load=load_ref, where=path)


def _report_records(report: ValidationReport, scope: str) -> None:
    for v in report.violations:
        _emit(
            {
                "record": "violation",
                "scope": scope,
                "axiom": v.axiom,
                "witness": list(v.witness),
                "detail": v.detail,
            }
        )
    for c in report.info:
        _emit({"record": "info", "scope": scope, "check": c.check, "holds": c.holds})


def _cmd_verify(args: argparse.Namespace) -> int:
    obj = _load_structure(args.structure)
    fuzzy = isinstance(obj, FuzzyHyperBCK)
    alg = obj.alg if fuzzy else obj
    report = validate_hyper_bck(alg, strict_antisymmetry=args.strict_hk4)
    _report_records(report, "axioms")
    passed = report.passed
    if fuzzy:
        fr = validate_fuzzy(obj)
        _report_records(fr, "membership")
        passed = passed and fr.passed
    _emit({"record": "verdict", "command": "verify", "passed": passed})
    return 0 if passed else 1


def _cmd_cut(args: argparse.Namespace) -> int:
    obj = _as_fuzzy(_load_structure(args.structure), args.structure)
    alpha = fuzzy_value(args.alpha)
    members = obj.alpha_cut(alpha)
    ordered = [lab for lab in obj.alg.carrier.labels if lab in members]
    _emit({"record": "alpha-cut", "alpha": format_fuzzy(alpha), "members": ordered})
    return 0


def _cmd_hom(args: argparse.Namespace) -> int:
    src = _load_structure(args.source)
    dst = _load_structure(args.target)
    src_alg = src.alg if isinstance(src, FuzzyHyperBCK) else src
    dst_alg = dst.alg if isinstance(dst, FuzzyHyperBCK) else dst
    if args.enumerate:
        homs = enumerate_homs(src_alg, dst_alg)
        for h in homs:
            _emit({"record": "hom", "map": h.as_label_map()})
        _emit({"record": "verdict", "command": "hom-enumerate", "count": len(homs)})
        return 0
    mapping = _load_json(_read_text(args.check), args.check)
    h = _hom_from_label_map(mapping, src_alg, dst_alg, args.check)
    crisp = is_hom(h)
    fuzzy_ok = None
    if crisp and isinstance(src, FuzzyHyperBCK) and isinstance(dst, FuzzyHyperBCK):
        fuzzy_ok = is_fuzzy_hom(h, src, dst)
    _emit({"record": "hom-check", "is_hom": crisp, "is_fuzzy_hom": fuzzy_ok})
    return 0 if crisp and fuzzy_ok is not False else 1


def _construction_record(result) -> dict:
    record = {
        "record": "construction",
        "kind": result.kind,
        "object": structure_to_dict(result.object),
        "legs": {name: leg.as_label_map() for name, leg in result.legs.items()},
    }
    if result.congruence is not None:
        record["blocks"] = [sorted(b) for b in result.congruence.label_blocks()]
    return record


def _cmd_product(args: argparse.Namespace) -> int:
    factors = [_as_fuzzy(_load_structure(p), p) for p in args.structures]
    _emit(_construction_record(product(factors)))
    return 0


def _load_parallel_pair(f_path: str, g_path: str):
    f, f_src, f_dst = _load_hom(f_path)
    g, g_src, g_dst = _load_hom(g_path)
    if f_src != g_src or f_dst != g_dst:
        raise InputError("the two morphisms must share source and target")
    return f, g, _as_fuzzy(f_src, f_path), _as_fuzzy(f_dst, f_path)


def _cmd_equalizer(args: argparse.Namespace) -> int:
    f, g, src, dst = _load_parallel_pair(args.f, args.g)
    _emit(_construction_record(equalizer(f, g, src, dst)))
    return 0


def _cmd_coequalizer(args: argparse.Namespace) -> int:
    f, g, src, dst = _load_parallel_pair(args.f, args.g)
    _emit(_construction_record(coequalizer(f, g, src, dst)))
    return 0


def _cmd_pullback(args: argparse.Namespace) -> int:
    f, f_src, f_dst = _load_hom(args.f)
    g, g_src, g_dst = _load_hom(args.g)
    if f_dst != g_dst:
        raise InputError("the two morphisms must share their target")
    result = pullback(
        f,
        g,
        _as_fuzzy(f_src, args.f),
        _as_fuzzy(g_src, args.g),
        _as_fuzzy(f_dst, args.f),
    )
    _emit(_construction_record(result))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    corpus = enumerate_hyper_bck(args.size, up_to_iso=args.up_to_iso)
    for model in corpus:
        print(render_structure(model))
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    print(render_structure(chain_example(args.chain), pretty=True), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbck",
        description="Validate and reason about finite hyper BCK-algebras "
        "and fuzzy membership structures on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the axioms (and mu, when present)")
    p.add_argument("structure")
    p.add_argument("--strict-hk4", action="store_true", help="also require antisymmetry")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cut", help="level set of a fuzzy structure")
    p.add_argument("--alpha", required=True, help="rational level, e.g. 1/2")
    p.add_argument("structure")
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("hom", help="check a map file or enumerate all homomorphisms")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", metavar="MAPFILE")
    group.add_argument("--enumerate", action="store_true")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("product", help="finite product of fuzzy structures")
    p.add_argument("structures", nargs="+")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("equalizer", help="agreement subalgebra of a parallel pair")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_equalizer)

    p = sub.add_parser("coequalizer", help="quotient by the least coequalizing congruence")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_coequalizer)

    p = sub.add_parser("pullback", help="pullback of a cospan (product + equalizer)")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_pullback)

    p = sub.add_parser("enumerate", help="all models of a given size, one per line")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("example", help="emit a worked example structure")
    p.add_argument("--chain", type=int, required=True, metavar="K")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ClaimViolation as exc:
        _emit({"record": "claim-violation", "claim": exc.claim, "witness": exc.witness})
        return 3
    except InputError as exc:
        record = {"record": "input-error", "message": str(exc)}
        if exc.code is not None:
            record.update(code=exc.code, location=exc.location)
        _emit(record)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
