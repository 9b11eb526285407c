"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 repobench/run.py --workload sim-miss --seed 3 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
wraps every layer's public functions and prints the per-layer metrics.  See
``repobench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from host import DriftClock  # noqa: E402

#: Share of a traced run's time measured untraced first (overhead baseline).
UNTRACED_SHARE = 0.25
#: The tail latency is the highest percentile with this many samples beyond.
TAIL_BEYOND = 10

#: Printed by an untraced run, in this order.
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
              "peak_rss_mb")
#: Counts and ratios a traced run reads from the program (name -> unit).
COUNTS = {
    "memory.l1_hit_ratio": "ratio",
    "memory.dram_per_access": "ratio",
    "prefetch.useful_ratio": "ratio",
    "core.lp_accuracy": "ratio",
    "core.lp_speedup": "ratio",
    "workloads.trace_cache_hit_ratio": "ratio",
    "sim.store.hit_ratio": "ratio",
    "service.simulations": "count",
    "service.fleet.max_member_share": "ratio",
}
#: The traced run's view of the host and of the tracing itself.
HOST_AND_TRACE = ("host.ref_ms", "host.raw_ops_per_s",
                  "host.correction_spread", "trace.overhead_frac",
                  "trace.unattributed_share", "trace.check_mismatches")
LAYER_SUFFIXES = ("self_ms_per_op", "share", "calls_per_op")


def per_layer_names() -> List[str]:
    """Every metric a traced run prints, for every workload."""
    from layers import LAYER_NAMES
    return [f"{layer}.{suffix}" for layer in LAYER_NAMES
            for suffix in LAYER_SUFFIXES] + list(COUNTS) \
        + list(HOST_AND_TRACE)


def workload_names() -> List[str]:
    from workloads import WORKLOADS
    return list(WORKLOADS)


def tail(values: List[float]) -> tuple:
    """(value, percentile): the highest percentile with >= 10 beyond it."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def pin_one_cpu() -> int:
    """Pin this process (and every process it starts) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


class Run:
    """One invocation: set-up, gate, timed passes, report."""

    def __init__(self, workload, seconds: float, traced: bool) -> None:
        self.workload = workload
        self.seconds = seconds
        self.traced = traced
        self.tracer = None
        self.failed_ops = 0
        self.attempted_ops = 0
        self.mismatches: List[str] = []
        self.system_totals = {"dram": 0, "accesses": 0, "pf_issued": 0,
                              "pf_useful": 0}

    # ------------------------------------------------------------------
    def setup(self) -> float:
        """Set up ``setup_reps`` times; the median corrected time."""
        times, raw = [], []
        for rep in range(self.workload.setup_reps):
            if rep:
                self.workload.teardown_setup()
            clock = DriftClock(window_s=self.workload.window_s)
            self.workload.setup(clock)
            clock.flush()
            times.append(sum(clock.corrected))
            raw.append(sum(clock.raw))
        self.setup_raw_s = statistics.median(raw)
        return statistics.median(times)

    def timed_passes(self) -> Dict[str, Any]:
        workload = self.workload
        clock = DriftClock(window_s=workload.window_s)
        reference = workload.reference_ops
        phases = {False: {"ops": 0, "first": 0, "end": 0},
                  True: {"ops": 0, "first": 0, "end": 0}}
        start = time.perf_counter()
        tracing = False
        before = after = counters_before = None
        while True:
            elapsed = time.perf_counter() - start
            if self.traced and not tracing and \
                    elapsed >= UNTRACED_SHARE * self.seconds:
                from layers import Tracer
                counters_before = workload.counters()
                workload.start_tracing()
                self.tracer = Tracer(clock=workload.span_clock)
                self.tracer.install()
                tracing = True
                before = self.tracer.totals()
                phases[True]["first"] = len(clock.raw)
            digests = workload.run_pass(clock)
            clock.flush()
            if reference is None:
                reference = digests
            self.attempted_ops += len(digests)
            self.failed_ops += sum(1 for got, want in zip(digests, reference)
                                   if got != want)
            phase = phases[tracing]
            phase["ops"] += workload.ops_in(digests)
            phase["end"] = len(clock.raw)
            if tracing:
                self.cross_check()
            # A traced run always measures at least one traced pass.
            if time.perf_counter() - start >= self.seconds and \
                    tracing == self.traced:
                break
        counters_after = None
        if tracing:
            after = self.tracer.totals()
            counters_after = workload.counters()
        return {"clock": clock, "phases": phases, "before": before,
                "after": after, "counters_before": counters_before,
                "counters_after": counters_after}

    # ------------------------------------------------------------------
    def cross_check(self) -> None:
        """Wrapper call counts against the program's own counters."""
        from layers import ACCESS_HIT, ACCESS_MISS, BULK_HITS, DRAM_ACCESS
        tracer = self.tracer
        tracer.close_systems()
        systems = tracer.systems
        tracer.systems = []
        results = self.workload.results
        if not systems:
            return
        jobs = self.workload.jobs
        if len(systems) != len(results):
            self.mismatches.append(
                f"{len(systems)} systems built for {len(results)} results")
            return
        predict_labels = [label for layer, label in tracer.slots
                          if layer == "core" and label.endswith(".predict")]
        end = tracer.snapshot()
        totals = self.system_totals
        for index, (system, at_init, at_reset) in enumerate(systems):
            window_end = systems[index + 1][1] if index + 1 < len(systems) \
                else end
            calls = {label: window_end.get(label, 0) - at_init.get(label, 0)
                     for label in window_end}
            self.check_equal(calls[DRAM_ACCESS], system["dram"],
                             "DRAM accesses", index)
            for key in ("dram", "pf_issued", "pf_useful"):
                totals[key] += system[key]
            job, result = jobs[index], results[index]
            if system["multicore"]:
                totals["accesses"] += job.accesses_per_core * system["cores"]
                continue
            totals["accesses"] += job.num_accesses + job.warmup_accesses
            measured_from = at_reset if at_reset is not None else at_init
            measured = {label: window_end.get(label, 0)
                        - measured_from.get(label, 0)
                        for label in window_end}
            stats = result.hierarchy_stats
            predicted = sum(measured.get(label, 0)
                            for label in predict_labels)
            expected = 0 if job.predictor == "ideal" \
                else result.predictor_stats.predictions
            self.check_equal(predicted, expected, "predictions", index)
            self.check_equal(measured[ACCESS_HIT] + measured[BULK_HITS],
                             stats.l1_hits, "L1 hits", index)
            self.check_equal(measured[ACCESS_MISS],
                             stats.demand_accesses - stats.l1_hits,
                             "L1 misses", index)

    def check_equal(self, traced: int, program: int, what: str,
                    index: int) -> None:
        if traced != program:
            self.mismatches.append(f"job {index}: {what}: wrappers counted "
                                   f"{traced}, program {program}")

    # ------------------------------------------------------------------
    def end_to_end(self, setup_s: float, timed: Dict[str, Any]
                   ) -> Dict[str, Any]:
        clock = timed["clock"]
        ops = timed["phases"][False]["ops"]
        latencies = [value * 1e3 for value in clock.corrected]
        tail_ms, percentile = tail(latencies)
        raw = [value * 1e3 for value in clock.raw[:len(latencies)]]
        # The uncorrected figures and the reference kernel's cost, for the
        # steadiness record in README.md.
        print(f"raw: setup_s={self.setup_raw_s:.6g} "
              f"ops_per_s={ops / (sum(raw) / 1e3):.6g} "
              f"op_p50_ms={statistics.median(raw):.6g} "
              f"op_tail_ms={tail(raw)[0]:.6g} "
              f"reference_ms_per_op={sum(clock.ref_samples) / ops:.6g} "
              f"median_reference_ms={statistics.median(clock.ref_samples):.4f}")
        print(f"{self.workload.name}: op_tail_ms is p{percentile:.2f} of "
              f"{len(latencies)} {self.workload.op_kind}s")
        return {
            "setup_s": metric(setup_s, "s"),
            "ops_per_s": metric(ops / sum(clock.corrected), "1/s"),
            "op_p50_ms": metric(statistics.median(latencies), "ms"),
            "op_tail_ms": metric(tail_ms, "ms"),
            "peak_rss_mb": metric(self.workload.peak_rss_mb(), "MB"),
        }

    def per_layer(self, timed: Dict[str, Any]) -> Dict[str, Any]:
        from layers import LAYER_NAMES, subtract
        clock = timed["clock"]
        untraced, traced = timed["phases"][False], timed["phases"][True]
        span = slice(traced["first"], traced["end"])
        raw_busy = sum(clock.raw[span])
        corrected_busy = sum(clock.corrected[span])
        scale = corrected_busy / raw_busy
        ops = traced["ops"]
        totals = subtract(timed["after"], timed["before"])
        member_totals = getattr(self.workload, "member_totals", None)
        if member_totals is not None:
            members = member_totals()
            for member in members:
                # The daemon's service work is all of its CPU time that no
                # other layer's span covers: dispatch, the socket server,
                # the wire encoding.
                service = member["cpu_s"]
                for name, entry in member["layers"].items():
                    totals[name]["calls"] += entry["calls"]
                    if name != "service":
                        totals[name]["self_s"] += entry["self_s"]
                        service -= entry["self_s"]
                totals["service"]["self_s"] += service
            store_gets = sum(member["layers"]["sim.store.get"]["calls"]
                             for member in members)
            store_hits = timed["counters_after"]["store_hits"] \
                - timed["counters_before"]["store_hits"]
            if store_gets != store_hits:
                self.mismatches.append(f"members read the store "
                                       f"{store_gets} times for "
                                       f"{store_hits} store hits")
        out: Dict[str, Any] = {}
        attributed = 0.0
        for name in LAYER_NAMES:
            entry = totals[name]
            share = entry["self_s"] / raw_busy
            attributed += share
            out[f"{name}.self_ms_per_op"] = metric(
                entry["self_s"] * scale * 1e3 / ops, "ms")
            out[f"{name}.share"] = metric(share, "ratio")
            out[f"{name}.calls_per_op"] = metric(entry["calls"] / ops,
                                                 "count")
        unattributed = 1.0 - attributed
        if unattributed < -0.02:
            self.mismatches.append(f"layer shares sum to {attributed:.4f}")
        counts = self.workload.layer_counts(timed["counters_before"],
                                            timed["counters_after"])
        systems = self.system_totals
        if systems["accesses"]:
            counts["memory.dram_per_access"] = \
                systems["dram"] / systems["accesses"]
        if systems["pf_issued"]:
            counts["prefetch.useful_ratio"] = \
                systems["pf_useful"] / systems["pf_issued"]
        for name, unit in COUNTS.items():
            out[name] = metric(counts.get(name, 0.0), unit)
        untraced_per_op = sum(clock.corrected[:untraced["end"]]) \
            / untraced["ops"]
        traced_per_op = corrected_busy / ops
        factors = clock.factors
        quartiles = statistics.quantiles(factors, n=4) \
            if len(factors) > 1 else [factors[0]] * 3
        out.update({
            "host.ref_ms": metric(statistics.median(clock.ref_samples),
                                  "ms"),
            "host.raw_ops_per_s": metric(ops / raw_busy, "1/s"),
            "host.correction_spread": metric(
                (quartiles[2] - quartiles[0]) / statistics.median(factors),
                "ratio"),
            "trace.overhead_frac": metric(
                traced_per_op / untraced_per_op - 1.0, "ratio"),
            "trace.unattributed_share": metric(unattributed, "ratio"),
            "trace.check_mismatches": metric(float(len(self.mismatches)),
                                             "count"),
        })
        for line in self.mismatches[:20]:
            print(f"cross-check mismatch: {line}")
        return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import SRC, WORKLOADS, make_work_dir
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    if not (SRC / "repro").is_dir():
        print(f"repobench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    # A terminated run still stops its fleet and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cpu = pin_one_cpu()
    print(f"repobench: {args.workload} seed {args.seed} on CPU {cpu}")

    work_dir = make_work_dir()
    kwargs = {"trace_members": bool(args.trace)} \
        if args.workload == "serve-warm" else {}
    workload = WORKLOADS[args.workload](args.seed, work_dir, **kwargs)
    try:
        run = Run(workload, args.seconds, bool(args.trace))
        setup_s = run.setup()
        workload.gate()
        timed = run.timed_passes()
        workload.finish()
        if args.trace:
            metrics = run.per_layer(timed)
        else:
            metrics = run.end_to_end(setup_s, timed)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    for what in workload.check_failures:
        print(f"check failed: {what}")
    failed = run.failed_ops + len(workload.check_failures) \
        + len(run.mismatches)
    attempted = run.attempted_ops + workload.checks_attempted
    if not all(math.isfinite(entry["value"]) for entry in metrics.values()):
        print("repobench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
