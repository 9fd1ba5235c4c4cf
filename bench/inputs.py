"""Benchmark inputs: the frozen corpus, the library loader, documents, a hom oracle.

The corpus file ``data/corpus.txt`` holds every hyper BCK-algebra of carrier
size 1, 2 and 3 with zero fixed, in ``enumerate_hyper_bck`` order, one per
line as ``<size> <cell masks>``; a size-3 line reads ``3 111722137``.  Set-up
checks it against its per-size counts and a recorded digest, so the
``verify`` and ``category`` workloads never run the model search.

Regenerate or compare it against the library search with::

    python3 bench/inputs.py check    # exit 1 on any difference
    python3 bench/inputs.py write
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS_PATH = BENCH_DIR / "data" / "corpus.txt"

CORPUS_COUNTS = {1: 1, 2: 12, 3: 15936}
CORPUS_SHA256 = "0b656edffaf2746c920220c18d58026be978824113118b506166a26d0413a1f1"

LABELS = ("O", "a", "b")

# The membership grid of the property suites in tests/conftest.py.
GRID = tuple(
    Fraction(*pair) for pair in ((0, 1), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (1, 1))
)

MODULES = ("core", "fuzzy", "morphisms", "category", "corpus", "io", "cli")


class SetupError(RuntimeError):
    """The benchmark cannot build its inputs (missing library, bad corpus file)."""


def fresh_library() -> SimpleNamespace:
    """Import ``hyperbck`` from ``src/`` anew, so every ``lru_cache`` starts cold.

    Returns a namespace with one attribute per library module.  Objects built
    by an earlier import are of other classes and must not be mixed in.
    """
    if not (SRC / "hyperbck" / "__init__.py").is_file():
        raise SetupError(f"no hyperbck package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "hyperbck" or m.startswith("hyperbck.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"hyperbck.{m}") for m in MODULES})


def read_corpus(path: Path | None = None) -> dict[int, list[tuple[int, ...]]]:
    """Parse and verify the corpus file: digest first, then per-size counts."""
    path = path or CORPUS_PATH
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SetupError(f"cannot read corpus file: {exc}") from None
    digest = hashlib.sha256(data).hexdigest()
    if digest != CORPUS_SHA256:
        raise SetupError(f"corpus file digest {digest} != recorded {CORPUS_SHA256}")
    tables: dict[int, list[tuple[int, ...]]] = {n: [] for n in CORPUS_COUNTS}
    for line in data.decode("ascii").splitlines():
        size, cells = line.split()
        tables[int(size)].append(tuple(int(c) for c in cells))
    counts = {n: len(t) for n, t in tables.items()}
    if counts != CORPUS_COUNTS:
        raise SetupError(f"corpus file counts {counts} != {CORPUS_COUNTS}")
    return tables


@dataclass(frozen=True)
class Corpus:
    """The frozen models as algebras of one library import."""

    le2: tuple  # every model of size 1 and 2, size 1 first
    size3: tuple


def build_corpus(lib: SimpleNamespace, tables: dict[int, list[tuple[int, ...]]]) -> Corpus:
    core = lib.core
    carriers = {n: core.Carrier(LABELS[:n], 0) for n in CORPUS_COUNTS}

    def models(n):
        return tuple(core.HyperBCK(carriers[n], t) for t in tables[n])

    return Corpus(le2=models(1) + models(2), size3=models(3))


def structure_doc(n: int, table: tuple[int, ...], mu=None) -> dict:
    """A structure document (docs/format.md) written without the library."""
    labels = LABELS[:n]
    doc = {
        "carrier": list(labels),
        "zero": labels[0],
        "table": {
            f"{labels[x]},{labels[y]}": [labels[t] for t in range(n) if table[x * n + y] >> t & 1]
            for x in range(n)
            for y in range(n)
        },
    }
    if mu is not None:
        doc["mu"] = {lab: _fraction_text(v) for lab, v in zip(labels, mu)}
    return doc


def _fraction_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def literal_hom(n: int, a: tuple[int, ...], m: int, b: tuple[int, ...], f: tuple[int, ...]) -> bool:
    """The strong hom equation on two zero-0 tables, by the literal definition.

    Shares no code with the library: zero is fixed and the image of every
    cell ``{f(t) : t in x*y}`` equals the cell ``f(x)*f(y)``.
    """
    if f[0] != 0:
        return False
    for x in range(n):
        for y in range(n):
            cell = a[x * n + y]
            image = 0
            for t in range(n):
                if cell >> t & 1:
                    image |= 1 << f[t]
            if image != b[f[x] * m + f[y]]:
                return False
    return True


def naive_homs(n: int, a: tuple[int, ...], m: int, b: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All strong homs, in the lexicographic order ``enumerate_homs`` documents."""
    return [f for f in itertools.product(range(m), repeat=n) if literal_hom(n, a, m, b, f)]


def _main(argv: list[str]) -> int:
    if argv not in (["check"], ["write"]):
        print("usage: python3 bench/inputs.py check|write", file=sys.stderr)
        return 2
    lib = fresh_library()
    lines = [
        f"{n} {''.join(str(c) for c in alg.table)}"
        for n in CORPUS_COUNTS
        for alg in lib.corpus.enumerate_hyper_bck(n)
    ]
    data = ("\n".join(lines) + "\n").encode("ascii")
    digest = hashlib.sha256(data).hexdigest()
    if argv == ["write"]:
        CORPUS_PATH.parent.mkdir(exist_ok=True)
        CORPUS_PATH.write_bytes(data)
        print(f"wrote {len(lines)} models to {CORPUS_PATH}, sha256 {digest}")
        return 0
    stored = CORPUS_PATH.read_bytes() if CORPUS_PATH.is_file() else b""
    same = stored == data and digest == CORPUS_SHA256
    print(f"search: {len(lines)} models, sha256 {digest}; recorded sha256 {CORPUS_SHA256}")
    print("corpus file matches the search" if same else "corpus file DIFFERS from the search")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
