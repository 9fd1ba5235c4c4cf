"""Tests of the benchmark itself: ``python3 -m pytest bench`` from the repository root."""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import expected  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def run_main(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(argv)
    return rc, out.getvalue().splitlines()


def traced_attributes() -> list[str]:
    """Every ``hyperbck`` module attribute currently bound to a trace wrapper."""
    return [
        f"{name}.{attr}"
        for name, mod in sys.modules.items()
        if name.split(".")[0] == "hyperbck"
        for attr, value in vars(mod).items()
        if hasattr(value, "__bench_traced__")
    ]


@pytest.fixture
def small_verify(monkeypatch):
    """The verify workload at a tenth of a second per pass (seed 1: no frozen totals)."""
    monkeypatch.setattr(workloads, "VERIFY_RANDOM", 40)
    monkeypatch.setattr(workloads, "VERIFY_SAMPLED", 10)
    monkeypatch.setattr(workloads, "VERIFY_CLI", 2)


def test_self_times_on_a_hand_built_span_tree():
    t = tracing.Tracer()
    root = t.add_span("a.root", 0.0, 10.0)
    child = t.add_span("a.child", 1.0, 4.0, parent=root)
    t.add_span("b.grandchild", 2.0, 3.0, parent=child)
    t.add_span("a.child", 5.0, 9.0, parent=root)
    t.add_span("b.other_root", 11.0, 12.5)
    assert t.self_times() == [3.0, 2.0, 1.0, 4.0, 1.5]
    assert t.root_time() == 11.5
    wall = 14.0
    unattributed = wall - t.root_time()
    assert sum(t.self_times()) + unattributed == wall


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert tracing.tail(values) == (0.9, 90.0)
    values = [float(i) for i in range(1, 1001)]
    assert tracing.tail(values) == (0.99, 990.0)
    assert tracing.tail([1.0, 2.0, 3.0]) == (0.5, 2.0)


def test_spans_round_trip_through_the_span_file(tmp_path):
    t = tracing.Tracer()
    root = t.add_span("a.root", 0.5, 2.0, op=3)
    t.add_span("b.leaf", 1.0, 1.25, parent=root, op=3)
    t.write(tmp_path / "spans.bin")
    back = tracing.read_spans(tmp_path / "spans.bin")
    assert back.names == t.names
    for col in ("name", "start", "end", "parent", "op"):
        assert getattr(back, col) == getattr(t, col)


def test_tampered_corpus_file_is_refused_at_setup(tmp_path, monkeypatch):
    data = bytearray(inputs.CORPUS_PATH.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("6")
    tampered = tmp_path / "corpus.txt"
    tampered.write_bytes(bytes(data))
    with pytest.raises(inputs.SetupError, match="digest"):
        inputs.read_corpus(tampered)

    monkeypatch.setattr(inputs, "CORPUS_PATH", tampered)
    rc, lines = run_main(["--workload", "verify", "--seed", "1", "--seconds", "0"])
    assert rc == 2
    assert lines == []


def test_missing_library_is_refused_without_a_result(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "SRC", tmp_path)
    rc, lines = run_main(["--workload", "verify", "--seed", "1", "--seconds", "0"])
    assert rc == 2
    assert lines == []


def test_wrong_expected_digest_makes_the_run_fail(monkeypatch):
    frozen = dict(expected.VERIFY_DEFAULT_SEED, outcome_sha256="0" * 64)
    monkeypatch.setattr(expected, "VERIFY_DEFAULT_SEED", frozen)
    rc, lines = run_main(["--workload", "verify", "--seed", "0", "--seconds", "0"])
    result = json.loads(lines[-1])
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "frozen outcome_sha256" in json.loads(lines[-2])["failures"][0]


def test_traced_run_restores_every_rebound_attribute(small_verify, tmp_path):
    lib = inputs.fresh_library()
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("hyperbck")}
    t = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(t, lib) as originals:
            assert lib.corpus.hk_axioms_hold_raw is not originals["core.hk_axioms_hold_raw"]
            assert lib.cli.enumerate_hyper_bck is not originals["corpus.enumerate_hyper_bck"]
            raise RuntimeError("the pass failed")
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert getattr(sys.modules[name], attr) is value, f"{name}.{attr}"

    result = run.Run("verify", 1, tmp_path).timed_pass(tracing.Tracer())
    assert result["chk"].failed == 0
    assert len(result["chk"].tracer.start) > 0
    assert traced_attributes() == []
    for name, original in result["originals"].items():
        module, fn = name.split(".")
        assert getattr(getattr(result["lib"], module), fn) is original


def test_untraced_run_installs_no_wrapper(small_verify, tmp_path, monkeypatch):
    seen = []
    verify_pass = workloads.verify_pass

    def probed_pass(lib, inp, chk):
        seen.append(traced_attributes())
        verify_pass(lib, inp, chk)
        seen.append(traced_attributes())

    def no_wrap(*args, **kwargs):
        raise AssertionError("a wrapper was built in an untraced run")

    monkeypatch.setitem(workloads.WORKLOADS, "verify", (workloads.verify_setup, probed_pass))
    monkeypatch.setattr(tracing.Tracer, "wrap", no_wrap)
    result = run.Run("verify", 1, tmp_path).timed_pass()
    assert result["chk"].failed == 0
    assert seen == [[], []]


def test_naive_homs_order_and_definition():
    # the 2-chain: O*O={O}, O*a={O}, a*O={a}, a*a={O}
    chain2 = (1, 1, 2, 1)
    assert inputs.naive_homs(2, chain2, 2, chain2) == [(0, 0), (0, 1)]
    assert inputs.naive_homs(2, chain2, 1, (1,)) == [(0, 0)]
