"""Command-line surface: validation, cuts, morphism checks, constructions.

Every command emits deterministic JSON records, one per line, on standard
output.  Exit codes: 0 all checks passed or construction succeeded; 1 a
validation or morphism check found violations; 2 malformed input; 3 a
documented construction guarantee failed on the given instance (the
record carries the witness); 141 the reader closed the output early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterator

from .core import ClaimViolation, InputError, ValidationReport, validate_hyper_bck
from .corpus import chain_example, enumerate_hyper_bck
from .category import coequalizer, equalizer, product, pullback
from .fuzzy import FuzzyHyperBCK, format_fuzzy, fuzzy_value, validate_fuzzy
from .io import Structure, _hom_from_label_map, _load_json, parse_hom_document
from .io import parse_structure, render_structure, structure_to_dict
from .morphisms import Hom, enumerate_homs, is_fuzzy_hom, is_hom


def _jsonable(value: Any) -> Any:
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
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}", "unreadable", path) from None


def _load_structure(path: str) -> Structure:
    return parse_structure(_read_text(path), path)


@contextmanager
def _at_flag(flag: str) -> Iterator[None]:
    """Locate a refusal raised in the block at the command-line ``flag``."""
    try:
        yield
    except InputError as exc:
        raise InputError(str(exc), exc.code, flag) from None


def _as_fuzzy(obj: Structure, where: str) -> FuzzyHyperBCK:
    """``obj`` if it has a membership map; else refused at ``where``, the file or endpoint."""
    if not isinstance(obj, FuzzyHyperBCK):
        message = f"{where} has no mu block; this command needs fuzzy structures"
        raise InputError(message, "mu-incomplete", where)
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
    with _at_flag("--alpha"):
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


def _load_pair(f_path: str, g_path: str, parallel: bool) -> tuple:
    """The maps of two morphism files and their fuzzy endpoints: the shared source and target of
    a parallel pair, or f's source, g's source and the shared target of a cospan."""
    (f, f_src, f_dst), (g, g_src, g_dst) = _load_hom(f_path), _load_hom(g_path)
    if parallel and f_src != g_src or f_dst != g_dst:
        at = f"{g_path}.source" if parallel and f_src != g_src else f"{g_path}.target"
        shared = "source and target" if parallel else "their target"
        raise InputError(f"the two morphisms must share {shared}", "endpoint-mismatch", at)
    sources = [(f_src, f_path)] if parallel else [(f_src, f_path), (g_src, g_path)]
    fuzzy = [_as_fuzzy(obj, f"{path}.source") for obj, path in sources]
    return f, g, *fuzzy, _as_fuzzy(f_dst, f"{f_path}.target")


def _cmd_pair(args: argparse.Namespace) -> int:
    """``equalizer``, ``coequalizer`` or ``pullback``: ``args.construct`` on the two maps, a map
    the library refuses (named ``f`` or ``g`` in its location) located at its file."""
    pair = _load_pair(args.f, args.g, args.parallel)
    try:
        result = args.construct(*pair)
    except InputError as exc:
        files = {"f": args.f, "g": args.g}
        raise InputError(str(exc), exc.code, files.get(exc.location, exc.location)) from None
    _emit(_construction_record(result))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    with _at_flag("--size"):
        corpus = enumerate_hyper_bck(args.size, up_to_iso=args.up_to_iso)
    sys.stdout.writelines(f"{render_structure(model)}\n" for model in corpus)
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    with _at_flag("--chain"):
        chain = chain_example(args.chain)
    text = render_structure(chain, pretty=True)
    # in pieces: unbuffered, a closed pipe fails the next piece's write, not one short count
    sys.stdout.writelines(text[i : i + (1 << 16)] for i in range(0, len(text), 1 << 16))
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; parsing leaves it unchanged."""
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

    for name, construct, parallel, text in (  # named, as the bench tracer rebinds these
        ("equalizer", equalizer, True, "agreement subalgebra of a parallel pair"),
        ("coequalizer", coequalizer, True, "quotient by the least coequalizing congruence"),
        ("pullback", pullback, False, "pullback of a cospan (product + equalizer)"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("f")
        p.add_argument("g")
        p.set_defaults(func=_cmd_pair, construct=construct, parallel=parallel)

    p = sub.add_parser("enumerate", help="all models of a given size, one per line")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("example", help="emit a worked example structure")
    p.add_argument("--chain", type=int, required=True, metavar="K")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except ClaimViolation as exc:
            _emit({"record": "claim-violation", "claim": exc.claim, "witness": exc.witness})
            code = 3
        except InputError as exc:
            record = {"record": "input-error", "message": str(exc)}
            if exc.code is not None:
                record.update(code=exc.code, location=exc.location)
            _emit(record)
            code = 2
        sys.stdout.flush()  # a closed pipe surfaces here, not in the interpreter's exit
        return code
    except BrokenPipeError:  # the rest goes to the null device, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
