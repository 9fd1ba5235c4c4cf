"""The three workloads: seeded inputs (set-up) and one timed pass each.

Every workload is a closed loop: one caller in one process issues the next
op only after the previous one returns.  ``setup`` builds inputs from the
seed without calling the model search or any cached library function, so a
pass that follows starts with cold caches.  Every op's output is checked;
the :class:`Checker` counts ops and failures and hashes every outcome, so
two passes (or a traced and an untraced pass) can be compared.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import expected
from inputs import GRID, LABELS, Corpus, literal_hom, naive_homs, structure_doc, write_json

ZERO = Fraction(0)

WHY = {
    "census": "the headline end-to-end run, where the model search and the mono probe dominate",
    "verify": "reporting validators and the membership layer on mostly invalid inputs, with no search and no morphisms",
    "category": "hom enumeration, fuzzy hom checks and the constructions, which census and verify bypass",
}

# verify: seeded random size-3 tables, sampled corpus models, the CLI slice
VERIFY_RANDOM = 2000
VERIFY_SAMPLED = 300
VERIFY_CLI = 12

# category: seeded size-3 pairs, fuzzy-hom comparisons, products, coequalizers
CATEGORY_PAIRS3 = 1500
CATEGORY_FUZZY = 3000
CATEGORY_PRODUCTS = 600
CATEGORY_COEQUALIZERS = 150
CATEGORY_CLI = 8


class Checker:
    """Counts ops and failed output checks and hashes every outcome."""

    MAX_MESSAGES = 20

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.totals: Counter = Counter()
        self._digest = hashlib.sha256()
        self._label = ""
        self._op_failed = False

    @contextmanager
    def op(self, label: str):
        """One op: any exception escaping it is an unexpected raise, so a failure."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        self._label = label
        self._op_failed = False
        try:
            yield
        except Exception as exc:  # the op's outcome; the run goes on
            self.fail(f"raised {type(exc).__name__}: {exc}")

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        if not self._op_failed:
            self._op_failed = True
            self.failed += 1
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(f"{self._label}: {what}")

    def record(self, *outcome) -> None:
        self._digest.update(repr(outcome).encode())

    def frozen(self, want: dict) -> None:
        """Frozen totals and outcome digest, each checked once per pass as an op."""
        got = dict(self.totals, outcome_sha256=self.digest)
        for name, value in want.items():
            with self.op(f"frozen {name}"):
                self.expect(got.get(name, 0) == value, f"{got.get(name, 0)!r} != frozen {value!r}")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def run_cli(lib: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = lib.cli.main(argv)
    return rc, out.getvalue()


def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """``g after f`` on value tuples."""
    return tuple(g[v] for v in f)


def is_literal_hom(src, dst, mapping: tuple[int, ...]) -> bool:
    return literal_hom(src.size, src.table, dst.size, dst.table, mapping)


def zero_mu(lib: SimpleNamespace, alg):
    return lib.fuzzy.FuzzyHyperBCK(alg, (ZERO,) * alg.size)


# -- census ---------------------------------------------------------------------------


def census_setup(lib: SimpleNamespace, corpus: Corpus, seed: int, workdir: Path) -> SimpleNamespace:
    """The census input is fixed: the seed has nothing to sample."""
    return SimpleNamespace(le2=corpus.le2, zero={alg: zero_mu(lib, alg) for alg in corpus.le2})


def census_pass(lib: SimpleNamespace, inp: SimpleNamespace, chk: Checker) -> None:
    want = expected.CENSUS
    with chk.op("cli enumerate --size 3 --up-to-iso"):
        rc, text = run_cli(lib, ["enumerate", "--size", "3", "--up-to-iso"])
        digest = hashlib.sha256(text.encode()).hexdigest()
        lines = text.count("\n")
        chk.expect(rc == 0, f"exit code {rc}")
        chk.expect(lines == want["iso_lines"], f"{lines} lines")
        chk.expect(digest == want["iso_sha256"], f"stdout sha256 {digest}")
        chk.record(rc, lines, digest)

    homs = [
        (src, dst, h)
        for src in inp.le2
        for dst in inp.le2
        for h in lib.morphisms.enumerate_homs(src, dst)
    ]
    chk.totals["mono_homs"] = len(homs)
    for i, (src, dst, h) in enumerate(homs):
        with chk.op(f"mono check {i}"):
            verdict = lib.morphisms.check_mono_equivalence(
                h, inp.zero[src], inp.zero[dst], probe_size_bound=3
            )
            chk.expect(verdict.agree, "crisp and fuzzy mono verdicts disagree")
            chk.totals["crisp_monos"] += verdict.crisp_mono
            witness = verdict.crisp_witness
            if witness is not None:
                p, q = witness
                chk.expect(
                    compose(p.mapping, h.mapping) == compose(q.mapping, h.mapping)
                    and p.mapping != q.mapping,
                    "crisp witness does not separate",
                )
            chk.record(verdict.crisp_mono, verdict.fuzzy_mono, witness and (witness[0].mapping, witness[1].mapping))
    chk.frozen(want["totals"])


# -- verify ---------------------------------------------------------------------------


def verify_setup(lib: SimpleNamespace, corpus: Corpus, seed: int, workdir: Path) -> SimpleNamespace:
    rng = random.Random(seed)
    carrier = lib.core.Carrier(LABELS, 0)
    items = [
        ("random", lib.core.HyperBCK(carrier, tuple(rng.randint(1, 7) for _ in range(9))))
        for _ in range(VERIFY_RANDOM)
    ]
    # a systematic sample from a seeded offset: every model is equally likely
    # to be drawn, and the work per pass (assignments vary from 1 to 140 per
    # model) varies far less between seeds than under a simple random sample
    step = len(corpus.size3) / VERIFY_SAMPLED
    offset = rng.random() * step
    items += [("sampled", corpus.size3[int(offset + k * step)]) for k in range(VERIFY_SAMPLED)]
    items += [("small", alg) for alg in corpus.le2]
    cli_files = {}
    for kind, offset in (("random", 0), ("sampled", VERIFY_RANDOM)):
        for i in range(offset, offset + VERIFY_CLI):
            alg = items[i][1]
            path = workdir / f"{kind}-{i}.json"
            write_json(path, structure_doc(alg.size, alg.table))
            cli_files[i] = str(path)
    return SimpleNamespace(seed=seed, items=items, cli_files=cli_files)


def verify_pass(lib: SimpleNamespace, inp: SimpleNamespace, chk: Checker) -> None:
    core, fuzzy, corpus = lib.core, lib.fuzzy, lib.corpus
    for i, (kind, alg) in enumerate(inp.items):
        with chk.op(f"verify {kind} {i}"):
            rep = core.validate_hyper_bck(alg)
            chk.expect(rep.passed == core.hk_axioms_hold(alg), "reporting verdict != hk_axioms_hold")
            chk.expect(rep.passed or kind == "random", "a corpus model is rejected")
            chk.totals["violations"] += len(rep.violations)
            outcome = [rep.passed, [(v.axiom, v.witness) for v in rep.violations]]
            if rep.passed:
                chk.totals["valid"] += 1
                assignments = corpus.enumerate_fuzzy_assignments(alg, GRID)
                chk.totals["assignments"] += len(assignments)
                for fz in assignments:
                    chk.expect(fuzzy.validate_fuzzy(fz).passed, f"assignment {fz.mu} rejected")
                    top = fz.mu[alg.zero]
                    chk.expect(all(top >= v for v in fz.mu), f"mu {fz.mu} not maximal at zero")
                    for level in fz.cut_levels():
                        mask = fz.alpha_cut_mask(level)
                        if mask:
                            sub = fz.restrict_mask(mask)
                            chk.expect(sub.alg.size == mask.bit_count(), "cut restricts wrongly")
                            chk.totals["cuts"] += 1
                outcome.append([fz.mu for fz in assignments])
            if i in inp.cli_files:
                rc, text = run_cli(lib, ["verify", inp.cli_files[i]])
                records = [json.loads(line) for line in text.splitlines()]
                chk.expect(rc == (0 if rep.passed else 1), f"cli exit code {rc}")
                chk.expect(
                    records[-1] == {"record": "verdict", "command": "verify", "passed": rep.passed},
                    "cli verdict record",
                )
                chk.expect(
                    sum(r["record"] == "violation" for r in records) == len(rep.violations),
                    "cli violation records",
                )
                outcome.append(rc)
            chk.record(*outcome)
    if inp.seed == expected.DEFAULT_SEED:
        chk.frozen(expected.VERIFY_DEFAULT_SEED)


# -- category -------------------------------------------------------------------------


def category_setup(lib: SimpleNamespace, corpus: Corpus, seed: int, workdir: Path) -> SimpleNamespace:
    rng = random.Random(seed)
    le2 = corpus.le2
    le2_homs = {
        (a, b): naive_homs(le2[a].size, le2[a].table, le2[b].size, le2[b].table)
        for a in range(len(le2))
        for b in range(len(le2))
    }
    cospans = [
        (a, b, c, f, g)
        for a in range(len(le2))
        for b in range(len(le2))
        for c in range(len(le2))
        for f in le2_homs[a, c]
        for g in le2_homs[b, c]
    ]
    pairs3 = [(rng.choice(corpus.size3), rng.choice(corpus.size3)) for _ in range(CATEGORY_PAIRS3)]

    # files for the CLI slice: structures sharing one seeded constant
    # membership, under which every hom is a fuzzy hom, and morphism
    # documents that name them by path
    level = rng.choice(GRID)
    docs = {}
    for idx, alg in enumerate(le2):
        docs[idx] = workdir / f"m{idx}.json"
        write_json(docs[idx], structure_doc(alg.size, alg.table, [level] * alg.size))

    def hom_doc(name, src, dst, mapping):
        path = workdir / f"{name}.json"
        write_json(
            path,
            {
                "source": docs[src].name,
                "target": docs[dst].name,
                "map": {LABELS[x]: LABELS[v] for x, v in enumerate(mapping)},
            },
        )
        return str(path)

    cli = []
    for k in range(CATEGORY_CLI):
        a, b = pairs3[k]
        paths = []
        for j, alg in enumerate((a, b)):
            paths.append(workdir / f"hom{k}-{j}.json")
            write_json(paths[-1], structure_doc(3, alg.table))
        count = len(naive_homs(3, a.table, 3, b.table))
        cli.append(("hom --enumerate", ["hom", "--enumerate", *map(str, paths)], 0, count))
    sized2 = [i for i, alg in enumerate(le2) if alg.size == 2]
    for k in range(CATEGORY_CLI):
        a, b = rng.choice(sized2), rng.choice(sized2)
        cli.append(("product", ["product", str(docs[a]), str(docs[b])], 0, le2[a].size * le2[b].size))
    for k in range(CATEGORY_CLI):
        i = rng.randrange(len(cospans))
        a, b, c, f, g = cospans[i]
        rc = 3 if i in expected.PULLBACK_VIOLATIONS else 0
        cli.append(
            ("pullback", ["pullback", hom_doc(f"pf{k}", a, c, f), hom_doc(f"pg{k}", b, c, g)], rc, i)
        )
    parallel = [(s, t, f, g) for (s, t), homs in le2_homs.items() for f in homs for g in homs]
    for k in range(CATEGORY_CLI):
        s, t, f, g = rng.choice(parallel)
        cli.append(("coequalizer", ["coequalizer", hom_doc(f"cf{k}", s, t, f), hom_doc(f"cg{k}", s, t, g)], 0, None))

    return SimpleNamespace(
        seed=seed,
        le2=le2,
        zero={alg: zero_mu(lib, alg) for alg in le2},
        le2_homs=le2_homs,
        cospans=cospans,
        pairs3=pairs3,
        cli=cli,
    )


def category_pass(lib: SimpleNamespace, inp: SimpleNamespace, chk: Checker) -> None:
    M, C, claim_cls = lib.morphisms, lib.category, lib.core.ClaimViolation
    rng = random.Random(inp.seed)
    le2, zero = inp.le2, inp.zero

    # hom enumeration: every pair of size <= 2, then the seeded size-3 pairs
    for (a, b), want in inp.le2_homs.items():
        with chk.op(f"enumerate_homs le2 {a}->{b}"):
            got = [h.mapping for h in M.enumerate_homs(le2[a], le2[b])]
            chk.expect(got == want, "differs from the literal definition")
            chk.record(got)
    homs3 = []
    for i, (a, b) in enumerate(inp.pairs3):
        with chk.op(f"enumerate_homs size-3 pair {i}"):
            homs = M.enumerate_homs(a, b)
            chk.expect(all(is_literal_hom(a, b, h.mapping) for h in homs), "a listed map is no hom")
            chk.record([h.mapping for h in homs])
            homs3.append((a, b, homs))

    # fuzzy homs: the membership test against the level-set criterion
    fuzzy2 = {alg: lib.corpus.enumerate_fuzzy_assignments(alg, GRID) for alg in le2}
    hom_pairs = [(le2[a], le2[b], f) for (a, b), homs in inp.le2_homs.items() for f in homs]
    for i in range(CATEGORY_FUZZY):
        src, dst, mapping = rng.choice(hom_pairs)
        fa, fb = rng.choice(fuzzy2[src]), rng.choice(fuzzy2[dst])
        with chk.op(f"fuzzy hom {i}"):
            h = M.Hom(src, dst, mapping)
            direct = M.is_fuzzy_hom(h, fa, fb)
            chk.expect(direct == M.fuzzy_hom_via_cuts(h, fa, fb), "criteria disagree")
            chk.expect(direct == all(fb.mu[v] >= fa.mu[x] for x, v in enumerate(mapping)), "wrong verdict")
            chk.totals["fuzzy_homs"] += direct
            chk.record(direct)

    # products of size-2 fuzzy structures, and the mediators of seeded cones
    sized2 = [alg for alg in le2 if alg.size == 2]
    for i in range(CATEGORY_PRODUCTS):
        a, b = rng.choice(sized2), rng.choice(sized2)
        fa, fb = rng.choice(fuzzy2[a]), rng.choice(fuzzy2[b])
        w = le2[i % len(le2)]
        result = None
        with chk.op(f"product {i}"):
            result = C.product([fa, fb])
            p0, p1 = result.legs["p0"].mapping, result.legs["p1"].mapping
            chk.expect(
                p0 == tuple(x // b.size for x in range(a.size * b.size))
                and p1 == tuple(x % b.size for x in range(a.size * b.size)),
                "projections",
            )
            chk.expect(
                all(v == min(fa.mu[p0[x]], fb.mu[p1[x]]) for x, v in enumerate(result.object.mu)),
                "membership is not the minimum",
            )
            chk.record(result.object.alg.table, result.object.mu)
        if result is None:
            continue
        for q1 in M.enumerate_homs(w, a):
            for q2 in M.enumerate_homs(w, b):
                tupling = tuple(u * b.size + v for u, v in zip(q1.mapping, q2.mapping))
                with chk.op(f"mediate_product {i}"):
                    try:
                        phi = C.mediate_product(result, zero[w], [q1, q2])
                    except claim_cls as exc:
                        chk.expect(
                            exc.claim == "product-mediator-hom"
                            and not is_literal_hom(w, result.object.alg, tupling),
                            f"unexpected {exc.claim}",
                        )
                        chk.totals["cones_without_mediator"] += 1
                        chk.totals["claim_violations"] += 1
                        chk.record(exc.claim)
                        continue
                    chk.expect(
                        phi.mapping == tupling
                        and compose(phi.mapping, p0) == q1.mapping
                        and compose(phi.mapping, p1) == q2.mapping,
                        "mediator equations",
                    )
                    chk.record(phi.mapping)

    # pullbacks of every cospan of size <= 2; the documented violations
    for i, (a, b, c, f, g) in enumerate(inp.cospans):
        want = expected.PULLBACK_VIOLATIONS.get(i)
        with chk.op(f"pullback {i}"):
            hf, hg = M.Hom(le2[a], le2[c], f), M.Hom(le2[b], le2[c], g)
            try:
                result = C.pullback(hf, hg, zero[le2[a]], zero[le2[b]], zero[le2[c]])
            except claim_cls as exc:
                got = [exc.claim, repr(exc.witness)]
                chk.expect(got == want, f"claim violation {got}")
                chk.totals["pullback_violations"] += 1
                chk.totals["claim_violations"] += 1
                chk.record(got)
                continue
            chk.expect(want is None, f"documented claim violation {want} disappeared")
            to_a, to_b = result.legs["to_a"].mapping, result.legs["to_b"].mapping
            chk.expect(compose(to_a, f) == compose(to_b, g), "legs do not commute")
            chk.record(to_a, to_b)
    chk.totals["cospans"] = len(inp.cospans)

    # equalizers of every parallel pair of size <= 2
    for (s, t), homs in inp.le2_homs.items():
        for j, f in enumerate(homs):
            for g in homs[j:]:
                with chk.op(f"equalizer {s}->{t}"):
                    result = C.equalizer(M.Hom(le2[s], le2[t], f), M.Hom(le2[s], le2[t], g), zero[le2[s]], zero[le2[t]])
                    include = result.legs["include"].mapping
                    chk.expect(compose(include, f) == compose(include, g), "legs do not commute")
                    chk.record(include)

    # coequalizers of parallel pairs among the size-3 homs, and their mediators
    parallel = [
        (a, b, f, g) for a, b, homs in homs3 for j, f in enumerate(homs) for g in homs[j:]
    ][:CATEGORY_COEQUALIZERS]
    for i, (a, b, f, g) in enumerate(parallel):
        result = None
        with chk.op(f"coequalizer {i}"):
            result = C.coequalizer(f, g, zero_mu(lib, a), zero_mu(lib, b))
            project = result.legs["project"].mapping
            chk.expect(compose(f.mapping, project) == compose(g.mapping, project), "legs do not commute")
            chk.record(result.congruence.blocks)
        if result is None:
            continue
        for target in le2:
            for phi in M.enumerate_homs(b, target):
                if compose(f.mapping, phi.mapping) != compose(g.mapping, phi.mapping):
                    continue
                with chk.op(f"mediate_coequalizer {i}"):
                    psi = C.mediate_coequalizer(result, zero[target], phi)
                    chk.expect(compose(project, psi.mapping) == phi.mapping, "mediator equation")
                    chk.record(psi.mapping)
    chk.totals["coequalizer_pairs"] = len(parallel)

    # the CLI on the files written at set-up
    for name, argv, want_rc, want in inp.cli:
        with chk.op(f"cli {name}"):
            rc, text = run_cli(lib, argv)
            records = [json.loads(line) for line in text.splitlines()]
            chk.expect(rc == want_rc, f"exit code {rc}")
            last = records[-1]
            if name == "hom --enumerate":
                chk.expect(last.get("count") == want == len(records) - 1, "hom count")
            elif want_rc == 3:
                chk.totals["claim_violations"] += 1
                chk.expect(
                    [last["record"], last["claim"]] == ["claim-violation", expected.PULLBACK_VIOLATIONS[want][0]],
                    "claim record",
                )
            else:
                chk.expect(last["record"] == "construction", "construction record")
                if name == "product":
                    chk.expect(len(last["object"]["carrier"]) == want, "product size")
            chk.record(rc, text)
    chk.frozen(expected.CATEGORY)
    if inp.seed == expected.DEFAULT_SEED:
        chk.frozen(expected.CATEGORY_DEFAULT_SEED)


WORKLOADS = {
    "census": (census_setup, census_pass),
    "verify": (verify_setup, verify_pass),
    "category": (category_setup, category_pass),
}
