"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench
"""

import gc
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402

run.use_source_tree()

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TinyAlgebra(workloads.Algebra):
    trace_ops = 45          # includes the first deep pair (op 39, d = 10)


class TinyDiagrams(workloads.Diagrams):
    trace_ops = 20


class TinySweep(workloads.Sweep):
    trace_ops = 4

    def __init__(self):
        super().__init__(level=2)   # 24 candidates per template


TINY = {"algebra": TinyAlgebra, "diagrams": TinyDiagrams, "sweep": TinySweep}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_present_with_unit(name, trace):
    result = run.run(name, seed=3, seconds=0.2, trace=bool(trace),
                     wl=TINY[name](), probe_repeats=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} \
        == {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_results(name):
    def results(seed):
        wl = TINY[name]()
        state = wl.setup()
        return [wl.op(state, inp)
                for inp in itertools.islice(wl.inputs(seed), wl.trace_ops)]

    assert results(5) == results(5)


class FlippedVerdict(TinyAlgebra):
    """Expects the wrong eq verdict for the first pair only."""

    flipped = False

    def expected_verdict(self, pair):
        verdict = super().expected_verdict(pair)
        if not self.flipped:
            self.flipped = True
            return not verdict
        return verdict


class WrongCount(TinySweep):
    def expected_count(self, label):
        return super().expected_count(label) + (label == "U+")


@pytest.mark.parametrize("wl", [FlippedVerdict(), WrongCount()],
                         ids=["flipped-verdict", "wrong-family-size"])
def test_sabotaged_reference_fails_the_op(wl):
    phase = run.run_ops(wl, wl.setup(), wl.inputs(1), n_ops=wl.trace_ops)
    assert phase.failed == 1, phase.errors
    assert phase.failed / phase.ops > 0


def test_op_past_the_cap_fails_without_hanging():
    wl = TinyAlgebra()
    wl.cap_s = 1e-6
    phase = run.run_ops(wl, wl.setup(), wl.inputs(1), n_ops=5)
    assert phase.failed == 5
    assert all("cap" in e for e in phase.errors)


def test_no_collection_inside_a_calibration_block():
    seen = []

    def on_gc(phase, info):
        seen.append(phase)

    threshold = gc.get_threshold()
    gc.set_threshold(1)         # collect on nearly every allocation
    gc.callbacks.append(on_gc)
    try:
        calibrate.time_slices(0.01, [])
    finally:
        gc.callbacks.remove(on_gc)
        gc.set_threshold(*threshold)
    assert seen == []


class Hoarding(TinyDiagrams):
    """Each op also builds and keeps HOARD tuples: extra op time, and a
    bigger heap for the cyclic GC to walk."""

    HOARD = 4000

    def __init__(self):
        self.kept = []

    def op(self, state, t):
        self.kept.append([(i, str(i)) for i in range(self.HOARD)])
        return super().op(state, t)


def test_injected_cost_moves_scaled_as_much_as_raw():
    """The slowdown must not see the library's cost, so a costlier op moves
    the scaled ops_per_s by the same ratio as the raw one.  Short plain and
    costly passes alternate, so both sample the same machine speed."""
    fast, slow = TinyDiagrams(), Hoarding()
    passes = {fast: [], slow: []}
    for _ in range(8):
        for wl in (fast, slow):
            passes[wl].append(run.run_ops(wl, None, wl.inputs(1), n_ops=60,
                                          calibrated=True))
        slow.kept.clear()

    def pooled(phases):
        ops = sum(p.ops for p in phases)
        return (ops / sum(p.busy_s for p in phases),
                ops / sum(sum(p.scaled_latencies()) for p in phases))

    (raw_fast, scaled_fast), (raw_slow, scaled_slow) = pooled(passes[fast]), pooled(passes[slow])
    raw, scaled = raw_fast / raw_slow, scaled_fast / scaled_slow
    assert raw > 1.3, "the injected cost should show in the raw figure"
    assert abs(scaled / raw - 1) < 0.2, (scaled, raw)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
