"""Benchmark of the hyperbck library and CLI, measured from outside the library.

    python3 bench/run.py --workload census|verify|category --seed N --seconds S --trace 0|1

Run from a checkout holding ``src/hyperbck``; nothing under ``src/`` is
touched.  A run first sets up several times (fresh import of ``hyperbck``,
load and digest-check the frozen corpus, seeded generation, writing the CLI
input files); ``setup_s`` is the median.  Then it runs timed passes of the
workload's fixed input until ``--seconds`` of timed work are done, at least
one.  Each pass follows a fresh import, so every ``lru_cache`` starts cold
as it does for a CLI user.  ``wall_s``, ``cpu_s`` and ``ops_per_s`` are
medians over the passes; ``peak_rss_mb`` is the process peak at the end.

Times are reported at a nominal host speed (see ``hostspeed.py``): each is
scaled by the nominal over the mean time of a reference loop sampled on a
timer through the set-ups and untraced passes.  The measured seconds and
the factor are in the run record.

With ``--trace 1`` one more pass runs with spans around calls into each
module's public functions (see ``tracer.py``), and the per-module metrics
replace the end-to-end ones in the result.  Spans are written to
``.bench_work/spans-<workload>.bin`` at the end.

Every op's output is checked (see ``workloads.py``); the outcome digests of
all passes, traced or not, must agree.  The last stdout line is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record.  The exit code is 1 when any check failed and 2 when set-up is
impossible (no library, bad corpus file), in which case no result is printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

import expected
import inputs
import tracer as tracing
from hostspeed import HostSpeed, reference_pairs
from workloads import WHY, WORKLOADS, Checker

SETUP_REPEATS = 9
WORK_DIR = inputs.ROOT / ".bench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix in ("calls", "leaves_checked", "violations_reported", "claim_violations"):
        return "count"
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("_us"):
        return "us"
    if suffix == "bytes":
        return "B"
    return "1"


def commit() -> str | None:
    """The checked-out commit when the checkout is a git work tree."""
    git = inputs.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((inputs.SRC / "hyperbck").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


class Run:
    """One benchmark run: set-ups, timed passes and, optionally, a traced pass."""

    def __init__(self, workload: str, seed: int, workdir: Path, speed: HostSpeed | None = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.setup_fn, self.pass_fn = WORKLOADS[workload]
        self.clock = (speed or HostSpeed([])).clock
        self.setup_s: list[float] = []

    def prepare(self):
        """One set-up: fresh library, checked corpus, seeded inputs and files."""
        gc.collect()
        w0, _ = self.clock()
        lib = inputs.fresh_library()
        corpus = inputs.build_corpus(lib, inputs.read_corpus())
        files = self.workdir / f"setup-{len(self.setup_s)}"
        files.mkdir(parents=True)
        inp = self.setup_fn(lib, corpus, self.seed, files)
        self.setup_s.append(self.clock()[0] - w0)
        return lib, inp

    def timed_pass(self, tracer=None):
        lib, inp = self.prepare()
        chk = Checker(tracer)
        gc.collect()
        w0, c0 = self.clock()
        if tracer is None:
            self.pass_fn(lib, inp, chk)
        else:
            with tracing.installed(tracer, lib) as originals:
                self.pass_fn(lib, inp, chk)
        w1, c1 = self.clock()
        wall, cpu = w1 - w0, c1 - c0
        result = {"wall": wall, "cpu": cpu, "chk": chk}
        if tracer is not None:
            result["lib"], result["originals"] = lib, originals
        return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_start = os.getloadavg()[0]
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        try:
            speed = HostSpeed(reference_pairs(inputs.read_corpus()))
            run = Run(args.workload, args.seed, workdir, speed)
            with speed.running():
                for _ in range(SETUP_REPEATS - 1):
                    run.prepare()
                passes = []
                while not passes or sum(p["wall"] for p in passes) < args.seconds:
                    passes.append(run.timed_pass())
        except inputs.SetupError as exc:
            print(f"bench: set-up failed: {exc}", file=sys.stderr)
            return 2
        traced = run.timed_pass(tracing.Tracer()) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checkers = [p["chk"] for p in passes] + ([traced["chk"]] if traced else [])
    attempted = sum(c.attempted for c in checkers)
    failed = sum(c.failed for c in checkers)
    messages = [m for c in checkers for m in c.messages]

    def check(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            messages.append(what)

    digests = sorted({c.digest for c in checkers})
    check(len(digests) == 1, f"passes disagree: outcome digests {digests}")
    ops = passes[0]["chk"].attempted
    wall_s = statistics.median(p["wall"] for p in passes)
    measured = {
        "setup_s": statistics.median(run.setup_s),
        "wall_s": wall_s,
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "ops_per_s": statistics.median(ops / p["wall"] for p in passes),
    }
    scale = speed.scale()
    end_to_end = {
        "setup_s": measured["setup_s"] * scale,
        "wall_s": measured["wall_s"] * scale,
        "cpu_s": measured["cpu_s"] * scale,
        "ops_per_s": measured["ops_per_s"] / scale,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "record": "run",
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": ops,
        "passes": len(passes),
        "wall_s_passes": [p["wall"] for p in passes],
        "setup_s_repeats": run.setup_s,
        "measured": measured,
        "reference_samples": len(speed.samples),
        "reference_s": statistics.mean(speed.samples),
        "speed_scale": scale,
        "outcome_digest": digests[0],
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }

    if traced is None:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}
    else:
        spans = traced["chk"].tracer
        layer, details = tracing.report(spans, traced["lib"], traced["originals"], traced["wall"], wall_s)
        WORK_DIR.mkdir(exist_ok=True)
        spans.write(WORK_DIR / f"spans-{args.workload}.bin")
        claims = traced["chk"].totals["claim_violations"]
        got = layer["category.claim_violations"]
        check(got == claims, f"traced category.claim_violations {got} != {claims} seen by the workload")
        if args.workload == "census":
            search = details["searches"].get("3")
            check(search == expected.CENSUS_SEARCH, f"traced size-3 search counted {search}")
        metrics = {k: (v, per_layer_unit(k)) for k, v in layer.items()}
        record["end_to_end"] = end_to_end
        record["trace_details"] = details
    record["failed_ratio"] = failed / attempted
    record["failures"] = messages[:20]

    print(f"{args.workload} seed {args.seed}: {ops} ops per pass, {len(passes)} passes")
    for name, (value, unit) in metrics.items():
        if value or traced is None:
            print(f"  {name:<52} {value:>16.6g} {unit}")
    if traced is None:
        print(f"  {'failed_ratio':<52} {record['failed_ratio']:>16.6g} 1")
    for message in messages[:20]:
        print(f"  FAILED {message}")
    print(json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
