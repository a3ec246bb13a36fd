"""Run one workload of the qu2 benchmark and print its metrics.

    python3 bench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
./src, never from an installed copy.  Each workload is a closed loop with
one client in this one process.  The loop times each op, then checks its
output against the workload's reference outside the timed region.  An op
that raises, passes the workload's cap or disagrees with the reference
counts as failed.

--trace 0 measures for --seconds of wall time and reports the end-to-end
metrics, with op times divided by the run's measured slowdown (see
Phase).  --trace 1 runs the workload's first `trace_ops` inputs twice,
untraced and then traced, and reports the per-layer metrics and the
tracing overhead; it writes the kept spans to .bench_out/.  The op count
is fixed there so that layer counters repeat exactly for a given seed.

A few report lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LOOP_CAP_S = 120      # no op starts later than this after the first loop began
PROBE_REPEATS = 15


def use_source_tree() -> None:
    """Put ./src first on the import path; refuse to run without it."""
    if not (SRC / "qu2" / "__init__.py").is_file():
        sys.exit(f"bench: no qu2 source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import qu2
    if not Path(qu2.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported qu2 from {qu2.__file__}, not {SRC}")


class OpTimeout(BaseException):
    """Raised by SIGALRM in an op that passed its workload's cap.  A
    BaseException, so no `except Exception` in the library swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout


CALIBRATION_EVERY_S = 0.1   # CPU time between calibration blocks
CALIBRATION_BLOCK_S = 0.02  # wall time of one block of slices
NEAR_S = 0.15               # blocks this close to an op set its slowdown


class Phase:
    """Latencies, failures and machine speed of one pass of the loop.

    While the pass runs, a SIGVTALRM handler times a block of calibration
    slices (calibrate.py) after every CALIBRATION_EVERY_S of CPU time,
    inside long ops as well as between them.  Time spent in the handler
    during an op is taken out of that op's latency.  Each op's latency is
    then divided by the slowdown of the blocks that ran during the op or
    within NEAR_S of it, since the machine's speed changes every few
    seconds.
    """

    def __init__(self, calibrated: bool):
        self.calibrated = calibrated
        self.latencies = []
        self.spans = []         # (start, end) of each op
        self.failed = 0
        self.errors = []
        self.busy_s = 0.0
        self.slice_times = []
        self.blocks = []        # (end, first slice, end slice) of each block
        self.handler_s = 0.0    # all time spent in the handler

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def _calibrate(self, signum, frame):
        first = len(self.slice_times)
        self.handler_s += calibrate.time_slices(CALIBRATION_BLOCK_S,
                                                self.slice_times)
        self.blocks.append((perf_counter(), first, len(self.slice_times)))

    def __enter__(self):
        if self.calibrated:
            signal.signal(signal.SIGVTALRM, self._calibrate)
            signal.setitimer(signal.ITIMER_VIRTUAL, CALIBRATION_EVERY_S,
                             CALIBRATION_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.calibrated:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            if not self.slice_times:
                self._calibrate(None, None)

    def record(self, start: float, end: float, latency: float) -> None:
        self.spans.append((start, end))
        self.latencies.append(latency)
        self.busy_s += latency

    def slowdown(self) -> float:
        """How much slower than the reference machine the whole pass ran; 1
        when the pass was not calibrated."""
        if not self.calibrated:
            return 1.0
        return calibrate.slowdown(self.slice_times)

    def ops_per_s(self) -> float:
        return self.ops / sum(self.scaled_latencies())

    def scaled_latencies(self):
        """Each latency divided by the slowdown around its op, or by the
        pass's when no block ran near it."""
        if not self.calibrated:
            return list(self.latencies)
        ends = [end for end, _first, _last in self.blocks]
        total = list(itertools.accumulate(self.slice_times, initial=0.0))
        whole = self.slowdown()
        out = []
        for (start, end), latency in zip(self.spans, self.latencies):
            lo = bisect.bisect_left(ends, start - NEAR_S)
            hi = bisect.bisect_right(ends, end + NEAR_S)
            if hi > lo:
                first, last = self.blocks[lo][1], self.blocks[hi - 1][2]
                slowdown = ((total[last] - total[first]) / (last - first)
                            / calibrate.NOMINAL_SLICE_S)
            else:
                slowdown = whole
            out.append(latency / slowdown)
        return out


def run_ops(wl, state, inputs, seconds=None, n_ops=None, tracer=None,
            deadline=None, calibrated=False) -> Phase:
    """Closed loop over `inputs`: stop after `n_ops` ops, or once `seconds`
    of wall time have passed at the end of a round of `wl.round` ops, and
    start no op after `deadline` (default: LOOP_CAP_S from now)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    deadline = deadline or start + LOOP_CAP_S
    with Phase(calibrated) as phase:
        for i, inp in enumerate(inputs):
            elapsed = perf_counter() - start
            if n_ops is not None and i >= n_ops:
                break
            if n_ops is None and elapsed >= seconds and i % wl.round == 0:
                break
            if perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.op_id, tracer.phase = i, "op"
            out, err = None, None
            in_handler = phase.handler_s
            t0 = perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, wl.cap_s)
                try:
                    out = wl.op(state, inp)
                except Exception as exc:
                    err = f"op raised {exc!r}"
                signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                signal.setitimer(signal.ITIMER_REAL, 0)
                err = f"op passed the {wl.cap_s} s cap"
                if tracer is not None:
                    tracer.stack.clear()
            t1 = perf_counter()
            if tracer is not None:
                tracer.phase = "ref"
            if err is None:
                try:
                    err = wl.check(inp, out)
                except Exception as exc:
                    err = f"reference check raised {exc!r}"
            if tracer is not None:
                tracer.phase = None
            phase.record(t0, t1, t1 - t0 - (phase.handler_s - in_handler))
            if err is not None:
                phase.failed += 1
                if len(phase.errors) < 5:
                    phase.errors.append(f"op {i}: {err}")
    return phase


def tail_percentile(latencies):
    """(percentile, value): the highest of p99, p90 and p50 with at least
    ten samples beyond it, or the median when none has."""
    xs = sorted(latencies)
    n = len(xs)
    for p in (99, 90):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50, statistics.median(xs)


def end_to_end(phase: Phase, probe: dict):
    """End-to-end metrics as name -> (value, unit, note).  Op times are
    divided by the machine's slowdown around each op; the notes give the
    raw figures."""
    latencies = phase.scaled_latencies()
    p, tail = tail_percentile(latencies)
    _p, raw_tail = tail_percentile(phase.latencies)
    tail_note = (f"p{p}, {phase.ops - math.ceil(p / 100 * phase.ops)} samples beyond"
                 if p != 50 else f"only {phase.ops} ops, too few for a tail: the median")
    p50 = statistics.median(latencies)
    return {
        "ops_per_s": (phase.ops / sum(latencies), "op/s",
                      f"{phase.ops} ops in {phase.busy_s:.2f} s of op time; raw "
                      f"{phase.ops / phase.busy_s:.6g} op/s, slowdown "
                      f"{phase.slowdown():.4f}"),
        "latency_p50_ms": (p50 * 1e3, "ms", f"n={phase.ops}; raw "
                           f"{statistics.median(phase.latencies) * 1e3:.6g} ms"),
        "latency_p99_ms": (tail * 1e3, "ms", f"{tail_note}; raw {raw_tail * 1e3:.6g} ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB", "peak resident memory of this process"),
        "setup_s": (probe["setup_s"], "s",
                    f"median of {probe['repeats']} cold starts, each divided by its "
                    f"own slowdown; raw {probe['setup_raw_s']:.6g} s; bare "
                    f"interpreter {probe['cli.interpreter_s']:.4f} s"),
    }


def per_layer(tracer, plain: Phase, traced: Phase, probe: dict):
    out = {name: (value, unit, "") for name, (value, unit) in tracer.metrics().items()}
    for name in ("cli.interpreter_s", "cli.import_s", "cli.build_parser_s", "cli.main_s"):
        out[name] = (probe[name], "s", f"median of {probe['repeats']} cold starts")
    out["trace.ops_per_s_untraced"] = (plain.ops_per_s(), "op/s", f"{plain.ops} ops")
    out["trace.ops_per_s_traced"] = (traced.ops_per_s(), "op/s", f"{traced.ops} ops")
    out["trace.overhead"] = (plain.ops_per_s() / traced.ops_per_s(), "ratio",
                             "untraced over traced ops_per_s")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, wl=None,
        probe_repeats: int = PROBE_REPEATS) -> dict:
    """Run one workload and return the result object; prints the report."""
    import startup
    from workloads import WORKLOADS

    wl = wl or WORKLOADS[workload]()
    probe = startup.probe(str(SRC), workload, probe_repeats)
    state = wl.setup()
    if not trace:
        phase = run_ops(wl, state, wl.inputs(seed), seconds=seconds, calibrated=True)
        phases = [phase]
        metrics = end_to_end(phase, probe)
        # error_rate is 0 on a healthy run, so it rides in the result line's
        # attempted/failed fields and in the report, not among the metrics
        shown = {"error_rate": (phase.failed / phase.ops, "fraction",
                                f"{phase.failed} of {phase.ops} ops failed")}
    else:
        from tracing import Tracer

        inputs = list(itertools.islice(wl.inputs(seed), wl.trace_ops))
        deadline = perf_counter() + LOOP_CAP_S
        plain = run_ops(wl, state, inputs, n_ops=len(inputs), deadline=deadline)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_ops(wl, state, inputs, n_ops=len(inputs), tracer=tracer,
                             deadline=deadline)
        finally:
            tracer.remove()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{workload}-{seed}.json")
        phases = [plain, traced]
        metrics = per_layer(tracer, plain, traced, probe)
        shown = {}
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)

    print(f"qu2 bench: workload={workload} seed={seed} trace={int(trace)}; "
          f"closed loop, 1 client; {attempted} ops attempted, {failed} failed")
    for name, (value, unit, note) in {**metrics, **shown}.items():
        print(f"  {name:36s} {value:14.6g} {unit:9s} {note}")
    for p in phases:
        for line in p.errors:
            print(f"  {line}")
    if not probe["ok"]:
        print("  cold-start probe: `qu2 eq U U` did not print true")
    return {"correct": failed == 0 and probe["ok"], "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _note) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("algebra", "diagrams", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
