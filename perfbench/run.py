"""Two-clock benchmark of the Logical Disk reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload smallfile --seed 1 --seconds 20 --trace 0

Workloads: smallfile, largefile_lzrw, raid5_tenants, crash_parity (see
``perfbench/README.md``). The run builds the stack from ``src/`` afresh
for every round, repeats rounds until ``--seconds`` of measured host
time have passed, checks every output, and requires the simulated
figures and layer counts of every round to be identical.

Host times are *paced*: every ``PROBE_INTERVAL_NS`` of a measured phase
the run times a fixed reference kernel (pure Python, independent of
``src/``), and each round's host times are scaled to the speed at which
that kernel takes ``REFERENCE_S``. On a shared machine whose speed
drifts by 2x over seconds, this keeps run-to-run figures comparable; the
raw figures and the measured slowdown are printed too.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half
the time untraced and half with every layer's entry points wrapped, and
prints per-layer host self time, the program's own counters, the
simulated figures and the tracing overhead. The last line of standard
output is one JSON object; the exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
#: Every run measures at least this many rounds, so determinism is checked.
MIN_ROUNDS = 2
#: setup_s is the median of at least this many set-ups.
MIN_SETUPS = 9
#: Host seconds one reference kernel call takes at the reference pace.
REFERENCE_S = 0.001
#: A pace probe runs at the first op start this long after the last one.
PROBE_INTERVAL_NS = 25_000_000

_BLOB = bytes(range(256)) * 64
_DIRECTORY = b"".join(b"f%05d" % i + bytes(26) for i in range(128))


def reference_kernel() -> int:
    """Fixed work of the four kinds the stack spends host time on: an
    interpreted dict-and-int loop, big-int XOR with sector-sized slices
    into a dict, ``bytes`` scans of a directory block, and an LZ-style
    byte copy loop. Uses nothing from ``src/``, so no change to the
    program can change it."""
    store: dict[int, bytes] = {}
    acc = 0
    for i in range(400):
        key = (i * 7919) % 509
        store[key] = _BLOB[i & 255 : (i & 255) + 64]
        got = store.get((key + 1) % 509)
        if got is not None:
            acc ^= int.from_bytes(got[:16], "little")
        acc = (acc * 31 + i) & 0xFFFFFFFF
    for i in range(6):
        a = int.from_bytes(_BLOB, "little")
        b = int.from_bytes(_BLOB[i:] + _BLOB[:i], "little")
        out = (a ^ b).to_bytes(len(_BLOB), "little")
        for j in range(0, 4096, 512):
            store[i * 4096 + j] = out[j : j + 512]
    for i in range(100):
        acc += _DIRECTORY.find(b"f%05d" % (i * 37 % 128))
        acc += len(_DIRECTORY[i * 32 : i * 32 + 32].rstrip(b"\0"))
    out = bytearray(_BLOB[:16])
    for i in range(1200):
        byte = _BLOB[i]
        if byte & 3:
            out.append(byte)
        else:
            start = len(out) - 3 - (byte >> 2) % 13
            out += out[start : start + 3]
    return acc + len(store) + len(out)


def probe_s() -> float:
    """Seconds one reference kernel call takes on the host right now."""
    t0 = perf_counter_ns()
    reference_kernel()
    return (perf_counter_ns() - t0) / 1e9


class Recorder:
    """Host-time samples and failures of the measured phases of a run.

    Every ``PROBE_INTERVAL_NS`` of a measured phase, the next op start
    first times one reference kernel call (a *pace probe*). Probe time is
    excluded from every op latency and from the phase time, including
    for ops in flight across it. When the round closes, its samples are
    scaled by ``REFERENCE_S`` over the median probe of the round into
    microseconds at the reference pace.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        #: Raw measured nanoseconds of all rounds (the loop's budget).
        self.elapsed_ns = 0
        #: Counts read by tracer observers during the current round.
        self.observed: Counter = Counter()
        self.discard_samples()
        self._raw: dict[str | None, array] = {}
        self._probes: list[float] = []
        self._paused_ns = 0
        self._next_probe = 0
        self._phase_t0 = 0
        self._phase_ns = 0
        #: ru_maxrss after the warm-up and the first measured rounds.
        self.peak_rss_mb = 0.0

    def discard_samples(self) -> None:
        """Forget the paced samples so far (after a warm-up round)."""
        self.op_us = array("d")
        self.class_us = {"read": array("d"), "write": array("d")}
        self.round_rates: list[float] = []
        self.round_seconds: list[float] = []
        self.raw_rates: list[float] = []
        self.paces: list[float] = []

    def _now(self) -> int:
        """Phase clock: host nanoseconds minus time spent in probes."""
        return perf_counter_ns() - self._paused_ns

    def begin(self) -> int:
        """Start one op; returns its start stamp for :meth:`end`."""
        t0 = perf_counter_ns()
        if t0 >= self._next_probe:
            self._probes.append(probe_s())
            t1 = perf_counter_ns()
            self._paused_ns += t1 - t0
            self._next_probe = t1 + PROBE_INTERVAL_NS
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        return self._now()

    def end(self, cls: str | None, t0: int) -> None:
        """Finish the op started at ``t0``; ``cls`` picks a class sample."""
        dt = self._now() - t0
        self._raw[None].append(dt)
        if cls in self._raw:
            self._raw[cls].append(dt)

    def split(self, cls: str, t0: int) -> int:
        """Record a class sample for one part of an op; returns now."""
        now = self._now()
        self._raw[cls].append(now - t0)
        return now

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)

    def phase_start(self) -> None:
        self._raw = {None: array("q"), "read": array("q"), "write": array("q")}
        self._probes = []
        self._next_probe = 0
        if self.tracer is not None:
            self.tracer.active = True
        self._phase_t0 = self._now()

    def phase_end(self) -> None:
        self._phase_ns = self._now() - self._phase_t0
        self.elapsed_ns += self._phase_ns
        if self.tracer is not None:
            self.tracer.active = False

    def close_round(self) -> float:
        """Scale the round's samples to the reference pace; returns the
        factor applied (reference seconds per measured second)."""
        pace = statistics.median(self._probes)
        scale = REFERENCE_S / pace
        to_us = scale / 1e3
        self.op_us.extend(ns * to_us for ns in self._raw[None])
        for cls, paced in self.class_us.items():
            paced.extend(ns * to_us for ns in self._raw[cls])
        ops = len(self._raw[None])
        self.raw_rates.append(ops / (self._phase_ns / 1e9))
        self.round_seconds.append(self._phase_ns * scale / 1e9)
        self.round_rates.append(ops / self.round_seconds[-1])
        self.paces.append(pace)
        return scale


def run_rounds(workload, seconds: float, rec: Recorder, on_round=None, warmup=False):
    """Set up and run rounds until ``seconds`` of measured time passed.

    A round's samples and its set-up time are scaled by the round's
    pace (see :class:`Recorder`). Returns ``(rounds,
    setup_seconds)``: each round's ``(sim, counts)`` and the paced
    set-up times. With ``warmup`` the first round is checked like any
    other but its samples are dropped, so the measured rounds start with
    the interpreter and the host CPU warm. An exception in the program
    counts as a failed op and ends the run.
    """
    rounds, setups = [], []
    while rec.elapsed_ns < seconds * 1e9 or len(rounds) < MIN_ROUNDS + warmup:
        try:
            t0 = perf_counter_ns()
            state = workload.setup()
            setup_ns = perf_counter_ns() - t0
            rec.observed.clear()
            sim, counts = workload.run(state, rec)
        except Exception:  # noqa: BLE001 - any escape is a failed op
            rec.attempted += 1
            rec.fail(traceback.format_exc(limit=6))
            break
        finally:
            state = None
            gc.collect()
        scale = rec.close_round()
        setups.append(setup_ns * scale / 1e9)
        counts.update(rec.observed)
        if on_round is not None:
            on_round(counts, scale)
        rounds.append((sim, counts))
        if rec.failed:
            break
        if warmup and len(rounds) == 1:
            rec.discard_samples()
            setups.clear()
        if len(rounds) == MIN_ROUNDS + warmup:
            # Peak memory of a fixed amount of work: later rounds only add
            # the benchmark's own samples, and how many there are depends
            # on host speed.
            rec.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rounds, setups


def paced_setups(workload, count: int) -> list[float]:
    """``count`` more set-ups (results dropped), paced like rounds."""
    times = []
    for _ in range(count):
        before = [probe_s() for _ in range(5)]
        t0 = perf_counter_ns()
        workload.setup()
        setup_ns = perf_counter_ns() - t0
        gc.collect()
        pace = statistics.median(before + [probe_s() for _ in range(5)])
        times.append(setup_ns * REFERENCE_S / pace / 1e9)
    return times


def check_identical(per_round: list[dict], what: str, rec: Recorder) -> None:
    """Fail the run unless every round reproduced round 0 exactly."""
    first = per_round[0]
    for i, other in enumerate(per_round[1:], start=1):
        if other != first:
            diff = sorted(k for k in first if first[k] != other.get(k))
            rec.fail(f"round {i} {what} differ from round 0: {diff}")


def end_to_end(workload, args) -> tuple[dict, Recorder, list]:
    from perfbench.workloads import percentile

    rec = Recorder()
    rounds, setups = run_rounds(workload, args.seconds, rec, warmup=True)
    if not rec.failed and len(setups) < MIN_SETUPS:
        setups += paced_setups(workload, MIN_SETUPS - len(setups))
    if rounds:
        check_identical([sim for sim, _ in rounds], "simulated figures", rec)
        check_identical([counts for _, counts in rounds], "layer counts", rec)
    if not rec.op_us or rec.failed:
        return {}, rec, rounds
    values = {
        "ops_per_s": (statistics.median(rec.round_rates), "1/s"),
        "op_p50_us": (percentile(rec.op_us, 0.50), "us"),
        "op_p90_us": (percentile(rec.op_us, 0.90), "us"),
        "read_p50_us": (percentile(rec.class_us["read"], 0.50), "us"),
        "write_p50_us": (percentile(rec.class_us["write"], 0.50), "us"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rec.peak_rss_mb, "MB"),
    }
    return values, rec, rounds


def per_layer(workload, args) -> tuple[dict, Recorder, list]:
    from perfbench.tracing import LAYERS, LayerTracer
    from perfbench.workloads import COUNT_UNITS, percentile

    half = args.seconds / 2
    plain = Recorder()
    plain_rounds, _ = run_rounds(workload, half, plain, warmup=True)

    tracer = LayerTracer()
    rec = Recorder(tracer)
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.messages += plain.messages

    def note_recovery(args_, _result):
        report = args_[0].recovery_report
        if report is not None:
            rec.observed["lld.recovery.summary_reads"] += report.summary_read_requests

    tracer.observe("lld", "initialize", note_recovery)
    per_round_calls = []
    self_s = dict.fromkeys(LAYERS, 0.0)
    span_mark = [0]

    def on_round(_counts, scale):
        totals = tracer.layer_totals(span_mark[0])
        span_mark[0] = tracer.span_count
        per_round_calls.append({k: v["calls"] for k, v in totals.items()})
        for layer in LAYERS:
            self_s[layer] += totals[layer]["self_s"] * scale

    with tracer:
        rounds, _ = run_rounds(workload, half, rec, on_round=on_round)
    if not rec.failed:
        check_identical([sim for sim, _ in plain_rounds + rounds], "simulated figures", rec)
        check_identical([counts for _, counts in rounds], "layer counts", rec)
        check_identical(per_round_calls, "layer call counts", rec)
    if not rec.op_us or rec.failed:
        return {}, rec, rounds

    n_rounds = len(rounds)
    calls = per_round_calls[0]
    for layer in workload.mechanism:
        if calls[layer] <= 0:
            rec.fail(f"{layer} made no call on its mechanism workload")
    for layer in workload.bypassed:
        if calls[layer] != 0:
            rec.fail(f"{layer} made {calls[layer]} calls on a bypass workload")

    round_s = statistics.fmean(rec.round_seconds)
    values: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        layer_s = self_s[layer] / n_rounds
        values[f"{layer}.calls"] = (calls[layer], "count")
        values[f"{layer}.self_s"] = (layer_s, "s")
        values[f"{layer}.share"] = (layer_s / round_s, "fraction")
    values["bench.self_s"] = (round_s - sum(self_s.values()) / n_rounds, "s")

    counts = rounds[0][1]
    for name, value in counts.items():
        values[name] = (value, COUNT_UNITS[name])
    compress_s = self_s["compress"] / n_rounds
    values["compress.mb_per_s"] = (
        counts["compress.bytes_in"] / compress_s / 1e6 if compress_s else 0.0,
        "MB/s",
    )
    sim = rounds[0][0]
    values["sim.ops_per_s"] = (sim["sim_ops_per_s"], "1/s")
    values["sim.op_p99_ms"] = (sim["sim_op_p99_ms"], "ms")
    values["sim.write_amp"] = (sim["write_amp"], "ratio")
    plain_rate = statistics.median(plain.round_rates)
    traced_rate = statistics.median(rec.round_rates)
    values["trace.spans"] = (tracer.span_count / n_rounds, "count")
    values["trace.ops_per_s"] = (traced_rate, "1/s")
    values["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    values["trace.ops_per_s_ratio"] = (traced_rate / plain_rate, "ratio")
    # p99 is reported here, unbounded: on a shared host it is set by
    # preemption hiccups more than by the program (see README.md).
    values["host.op_p99_us"] = (percentile(plain.op_us, 0.99), "us")
    values["host.slowdown"] = (
        statistics.median(plain.paces + rec.paces) / REFERENCE_S,
        "ratio",
    )
    return values, rec, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    measure = per_layer if args.trace else end_to_end
    values, rec, rounds = measure(workload, args)

    correct = rec.failed == 0 and bool(values)
    for message in rec.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    if rounds:
        sim = ", ".join(f"{k}={v:.6g}" for k, v in rounds[0][0].items())
        print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} "
              f"samples={len(rec.op_us)} failed_frac={rec.failed / max(1, rec.attempted):.6g}")
        if rec.paces:
            print(f"# host: raw ops_per_s={statistics.median(rec.raw_rates):.6g} "
                  f"slowdown={statistics.median(rec.paces) / REFERENCE_S:.4g}")
        print(f"# sim: {sim}")
    result = {
        "correct": correct,
        "attempted": max(1, rec.attempted),
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
