"""End-to-end benchmark of the LiPFormer serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 30 --trace 0

``--workload`` is ``interactive``, ``fleet`` or ``fleet_process`` (see
``workloads.py``).  Each run builds its inputs from ``--seed``, sets the
system up from nothing several times (``setup_s`` is the median), drives
the last set-up closed-loop for ``--seconds`` seconds, sets up a few more
times, checks sampled outputs against an oracle, and prints one JSON
object as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with the
program's defaults (metrics on, tracing off).  With ``--trace 1`` the run
spends half its time untraced and half with tracing and the layer
wrappers of ``ledger.py`` on, and reports the per-layer metrics instead.
Full records (host fingerprint, matmul calibration, every metric) are
appended to ``perfbench/out/history.jsonl``, and the traced run writes a
Chrome trace of a few operations next to it.

The command exits 2, without a result line, when the repository's
``src/repro`` package is missing, and exits 1 after printing the result
when any output check failed.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Pin BLAS to one thread before numpy is imported anywhere; the process
# backend's workers inherit this environment.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import json
import signal
import statistics
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("interactive", "fleet", "fleet_process")
#: registry families read around the timed phase, and the field summed
RUNTIME_FAMILIES = {
    "runtime.lock_wait_us": ("repro_lock_wait_seconds", "sum", 1e6, "us"),
    "runtime.retries": ("repro_cluster_shard_retries_total", "value", 1.0, "count"),
    "runtime.breaker_transitions": (
        "repro_resilience_breaker_transitions_total", "value", 1.0, "count"),
}

#: end-to-end metrics in the result line, each with a regression bound in
#: BENCHMARK.json.  The shared host's vCPUs switch between a fast regime
#: and one about 1.6x slower every few seconds, so a statistic that mixes
#: the two measures the host: over ten 30 s runs of the same code, run in
#: turn across the workloads, the p50 latency spread by 0.17 to 0.32 of
#: its median on ``interactive``, and its p2, which every run reaches in
#: the fast regime, by 0.02 to 0.04.  ``latency_ms`` is therefore a fixed
#: percentile per workload (``latency_percentile`` in workloads.py).
#: ``latency_p50_ms``, ``latency_tail_ms`` and the throughputs are printed
#: and recorded but not gated; with one client in a closed loop,
#: throughput is the reciprocal of the mean latency, which mixes the
#: regimes.
GATED_END_TO_END = ("setup_s", "latency_ms", "peak_rss_mb")

Metrics = Dict[str, Tuple[float, str]]


class Phase:
    """One closed-loop timed phase: per-operation times, and the digests of
    the sampled operations' outputs."""

    def __init__(self) -> None:
        self.latencies = np.empty(0)
        #: completion time of each operation
        self.ends = np.empty(0)
        self.samples: Dict[int, str] = {}
        self.errors: Dict[int, str] = {}
        self.began = 0.0
        self.wall = 0.0


def timed_phase(workload, system, seconds: float, first_op: int, ledger=None) -> Phase:
    """Run operations back to back for ``seconds``, or until
    ``seconds * workload.max_ops_per_s`` of them have run."""
    from workloads import digest

    phase = Phase()
    # Fixed-size buffers, filled up front, and digests rather than outputs:
    # the benchmark's own memory is then the same however many operations
    # the run completes, so a faster program does not read as a larger
    # ``peak_rss_mb``.
    capacity = max(1, int(seconds * workload.max_ops_per_s))
    starts = np.full(capacity, np.nan)
    ends = np.full(capacity, np.nan)
    count = 0
    began = phase.began = perf_counter()
    deadline = began + seconds
    finished = began
    while finished < deadline and count < capacity:
        op = first_op + count
        started = perf_counter()
        try:
            output = workload.run_op(system, op)
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            output = None
            phase.errors[op] = f"{type(error).__name__}: {error}"
        finished = perf_counter()
        starts[count] = started
        ends[count] = finished
        if output is not None and workload.sampled(op):
            phase.samples[op] = digest(output)
        if ledger is not None:
            ledger.collect(count, finished - started)
            finished = perf_counter()
        count += 1
    phase.latencies = ends[:count] - starts[:count]
    phase.ends = ends[:count]
    phase.wall = finished - began
    return phase


def window_throughput(phase: Phase, window_ops: int, forecasts_per_op: int) -> Tuple[float, int]:
    """Median, over consecutive windows of ``window_ops`` operations, of
    the forecasts per second each window completed; and the window count.

    A median over windows, unlike the whole-phase average, is not decided
    by how much of a run fell into one of the host's slow phases.
    """
    window_ops = max(1, min(window_ops, len(phase.ends)))
    marks = np.concatenate(([phase.began], phase.ends))
    rates = [
        window_ops * forecasts_per_op / float(marks[start + window_ops] - marks[start])
        for start in range(0, len(phase.ends) - window_ops + 1, window_ops)
    ]
    return statistics.median(rates), len(rates)


def runtime_totals() -> Dict[str, float]:
    """Coordinator-side runtime counters, summed over their label sets."""
    from repro import obs

    families = {family.name: family for family in obs.default_registry().families()}
    totals = {}
    for metric, (family_name, field, scale, _) in RUNTIME_FAMILIES.items():
        family = families.get(family_name)
        children = family.children() if family is not None else ()
        totals[metric] = scale * sum(float(getattr(child, field)) for child in children)
    return totals


class Measurement:
    """Everything one run measured, before it is turned into metrics."""

    def __init__(self) -> None:
        self.setup_times: List[float] = []
        self.phases: List[Phase] = []
        self.ledger = None
        self.peak_rss = 0.0
        self.plan: Dict[str, float] = {}
        self.runtime: Dict[str, float] = {}
        self.requests = 0
        self.passes = 0


def measure(workload, trace: bool, seconds: float) -> Measurement:
    """Set up repeatedly, time the last set-up, then set up a few more
    times; always closes the system."""
    from spinners import IdleSpinners

    result = Measurement()
    system = None

    def cold_setup() -> None:
        nonlocal system
        if system is not None:
            system.close()
            system = None
            # Free each discarded set-up before the next, so the peak RSS
            # does not grow with the number of set-ups.
            gc.collect()
        started = perf_counter()
        system = workload.setup()
        result.setup_times.append(perf_counter() - started)

    spinners = IdleSpinners()
    if workload.keep_vcpus_awake:
        spinners.start()
    try:
        before, after = workload.setup_repeats
        for _ in range(before):
            cold_setup()
        # The discarded set-ups' plan-cache views must be gone before the
        # counters are read, and their garbage must not be collected inside
        # the timed phase.
        gc.collect()
        runtime_before = runtime_totals()
        plan_before = system.plan_counters()
        stats_before = system.service_stats()
        if trace:
            from ledger import Ledger

            result.phases.append(timed_phase(workload, system, seconds / 2.0, 0))
            first = len(result.phases[0].latencies)
            with Ledger() as result.ledger:
                result.phases.append(
                    timed_phase(workload, system, seconds / 2.0, first, result.ledger)
                )
        else:
            result.phases.append(timed_phase(workload, system, seconds, 0))
        stats_after = system.service_stats()
        plan_after = system.plan_counters()
        runtime_after = runtime_totals()
        result.peak_rss = system.peak_rss_mb()
        # The rest of the set-ups run after timing, so that a slow host
        # phase at the start of the run does not decide ``setup_s`` alone.
        for _ in range(after):
            cold_setup()
    finally:
        if system is not None:
            system.close()
        spinners.stop()
    result.plan = {key: plan_after[key] - plan_before[key] for key in plan_after}
    result.runtime = {key: runtime_after[key] - runtime_before[key] for key in runtime_after}
    result.requests = stats_after.requests - stats_before.requests
    result.passes = stats_after.forward_passes - stats_before.forward_passes
    return result


def end_to_end_metrics(workload, result: Measurement) -> Dict[str, Tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` from the untraced phase."""
    phase = result.phases[0]
    latencies_ms = phase.latencies * 1e3
    count = len(latencies_ms)
    throughput, windows = window_throughput(
        phase, workload.throughput_window_ops, workload.forecasts_per_op
    )
    return {
        "setup_s": (statistics.median(result.setup_times), "s", len(result.setup_times)),
        "latency_ms": (
            float(np.percentile(latencies_ms, workload.latency_percentile)), "ms", count),
        "latency_p50_ms": (float(np.percentile(latencies_ms, 50.0)), "ms", count),
        "latency_tail_ms": (
            float(np.percentile(latencies_ms, workload.tail_percentile)), "ms", count),
        "throughput_per_s": (throughput, "1/s", windows),
        "throughput_mean_per_s": (count * workload.forecasts_per_op / phase.wall, "1/s", count),
        "peak_rss_mb": (result.peak_rss, "MiB", 1),
    }


def per_layer_metrics(workload, result: Measurement) -> Metrics:
    untraced, traced = result.phases
    untraced_rate = len(untraced.latencies) / untraced.latencies.sum()
    traced_rate = len(traced.latencies) / traced.latencies.sum()
    plan = result.plan
    lookups = plan["hits"] + plan["traces"] + plan["fallbacks"]
    costs = workload.model_costs()
    metrics = dict(result.ledger.summary())
    metrics.update(
        {
            "serving.batch_size": (
                result.requests / result.passes if result.passes else 0.0, "requests/pass"),
            "plan.hit_ratio": (plan["hits"] / lookups if lookups else 0.0, "ratio"),
            "plan.traces_timed": (plan["traces"], "count"),
            "core.params": (costs["params"], "count"),
            "core.macs_per_forecast": (costs["macs"], "MACs"),
            "core.covariate_macs_share": (costs["covariate_share"], "ratio"),
            # Forecasts per second of operation time, so the span folding
            # between traced operations is not counted as overhead.
            "obs.tracing_overhead": (1.0 - traced_rate / untraced_rate, "ratio"),
        }
    )
    for name, (_, _, _, unit) in RUNTIME_FAMILIES.items():
        metrics[name] = (result.runtime[name], unit)
    return metrics


def run(args) -> Tuple[bool, int, int, Dict[str, Dict[str, object]], Dict[str, object]]:
    import hostinfo
    import workloads

    record: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": hostinfo.fingerprint(ROOT, BLAS_THREAD_VARS),
        "matmul_us_start": hostinfo.matmul_calibration_us(),
    }
    steal_start, ticks_start = hostinfo.cpu_ticks()
    workload = workloads.make_workload(args.workload, args.seed, args.seconds)
    result = measure(workload, bool(args.trace), args.seconds)

    samples: Dict[int, object] = {}
    errors: Dict[int, str] = {}
    for phase in result.phases:
        samples.update(phase.samples)
        errors.update(phase.errors)
    check_failures, check_info = workload.check(samples)
    failures = {**errors, **check_failures}
    attempted = sum(len(phase.latencies) for phase in result.phases)
    failed = len(failures)

    end_to_end = end_to_end_metrics(workload, result)
    if args.trace:
        metrics = {name: {"value": float(v), "unit": u}
                   for name, (v, u) in sorted(per_layer_metrics(workload, result).items())}
        record["traced_ops"] = result.ledger.ops
        record["ops_with_full_span_ring"] = result.ledger.dropped_ops
        _write_chrome_trace(args, result.ledger.kept)
    else:
        metrics = {name: {"value": float(end_to_end[name][0]), "unit": end_to_end[name][1]}
                   for name in GATED_END_TO_END}
    steal_end, ticks_end = hostinfo.cpu_ticks()
    record.update(
        {
            "steal_share": (steal_end - steal_start) / max(1, ticks_end - ticks_start),
            "matmul_us_end": hostinfo.matmul_calibration_us(),
            "attempted": attempted,
            "failed": failed,
            "check": check_info,
            "failures": {str(op): reason for op, reason in sorted(failures.items())[:20]},
            "setup_s_all": result.setup_times,
            "end_to_end": {name: value for name, (value, _, _) in end_to_end.items()},
            "plan_traces_timed": result.plan["traces"],
            "metrics": metrics,
        }
    )
    _report(args, workload, record, end_to_end, failures)
    return failed == 0, attempted, failed, metrics, record


def _report(args, workload, record, end_to_end, failures) -> None:
    host = record["host"]
    print(
        f"host: cores={host['cores']} usable={host['usable_cores']} numpy={host['numpy']} "
        f"python={host['python']} sha={host['git_sha']} "
        f"matmul256_us start={record['matmul_us_start']:.1f} end={record['matmul_us_end']:.1f} "
        f"steal={record['steal_share']:.3f}"
    )
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"ops: attempted={attempted} succeeded={attempted - failed} failed={failed}")
    for name, value in sorted(record["check"].items()):
        print(f"check.{name}: {value}")
    for reason in list(failures.values())[:5]:
        print(f"FAILED: {reason}")
    print(f"plan.traces_timed = {record['plan_traces_timed']:g} (expected 0)")
    if args.trace:
        print(f"traced ops: {record['traced_ops']} "
              f"(ops whose spans filled the recorder: {record['ops_with_full_span_ring']})")
        for name, payload in record["metrics"].items():
            print(f"{args.workload}/{name} = {payload['value']:.6g} {payload['unit']}")
        return
    tail_q = workload.tail_percentile
    for name, (value, unit, count) in end_to_end.items():
        note = ""
        if name == "latency_ms":
            latency_q = workload.latency_percentile
            note = f"p{latency_q:g}, {int(count * latency_q / 100.0)} below, "
        elif name == "latency_tail_ms":
            note = f"p{tail_q:g}, {int(count * (100.0 - tail_q) / 100.0)} beyond, "
        elif name == "throughput_per_s":
            note = f"median over windows of {workload.throughput_window_ops} ops, "
        if name not in GATED_END_TO_END:
            note = "not in the result line, " + note
        print(f"{args.workload}/{name} = {value:.6g} {unit} ({note}n={count})")


def _write_chrome_trace(args, events) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle, default=repr)


def _append_history(record) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "history.jsonl"), "a") as handle:
        handle.write(json.dumps(record, default=repr) + "\n")


def _terminate(signum, frame) -> None:
    # Unwind through the finally blocks that close workers and spinners.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        correct, attempted, failed, metrics, record = run(args)
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 1
    _append_history(record)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
