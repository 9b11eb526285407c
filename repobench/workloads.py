"""The benchmark's four workloads: set-up, timed passes and checks.

Every workload runs single-threaded on the one CPU the benchmark pinned
itself to.  A *pass* is the workload's fixed list of operations (jobs or
requests); each operation is timed on its own, inside a
:class:`~host.DriftClock` segment, and its result is reduced to a digest
that must equal the reference digest of the same operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from host import DriftClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_FILE = ROOT / "GOLDEN_stats.json"

#: sim-hit applications: L1 hit ratio 0.67-0.91 at the benchmark's sizes.
HIT_APPS = ("602.gcc", "627.cam", "nas.mg", "623.xalan", "nas.ft", "bmt")
#: sim-miss applications: L1 hit ratio <= 0.01.
MISS_APPS = ("605.mcf", "619.lbm", "gups", "nas.is", "stream", "654.roms")
#: The tiny scale of the sweep-cold grid and of the serve-warm store.
TINY_SCALE = {"accesses": 60, "warmup": 20, "mix_accesses": 40}
#: serve-warm's figure requests, most popular first (zipf rank order).
FIGURES = ("fig10", "fig11", "fig12", "golden", "fig07", "fig08", "fig09",
           "fig05", "fig13", "fig14", "fig15")
#: Requests of one serve-warm deck: the figure of rank r appears
#: round(DECK_TOP / r) times.  The client draws decks shuffled by the seed,
#: so every run sends the same zipf mix in a seeded order; drawing figures
#: independently would let the mix, and with it the median, vary by seed.
DECK_TOP = 24
FLEET_MEMBERS = 2


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts: the checkout's
    sources, and none of the caller's ``REPRO_*`` knobs."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_TRACE_DIR"] = ""
    return env


def result_digest(result: Any) -> str:
    from repro.sim.store import serialize_result
    text = json.dumps(serialize_result(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stats_digest(stats: Any) -> str:
    from repro.experiments import canonical_json
    return hashlib.sha256(canonical_json(stats).encode("utf-8")).hexdigest()


def golden_matches() -> bool:
    """Run the golden grid and compare it with ``GOLDEN_stats.json``."""
    from repro.experiments import EXPERIMENTS, Scale, canonical_json
    golden = EXPERIMENTS["golden"]
    results = untraced_engine().run(golden.jobs(Scale()))
    summary = canonical_json(golden.summarize(results, Scale()))
    return summary == GOLDEN_FILE.read_text(encoding="utf-8")


def untraced_engine(store: Any = False, cache: Any = None):
    from repro.sim import SimulationEngine, TraceCache
    return SimulationEngine(
        jobs=1, store=store, kernel="batch",
        trace_cache=TraceCache(spill_dir=None) if cache is None else cache)


def time_import(clock: DriftClock) -> None:
    """Set-up phase: import the program in a fresh interpreter."""
    command = [sys.executable, "-c",
               "import repro, repro.experiments, repro.service"]
    clock.timed(subprocess.run, command, env=child_env(), check=True,
                cwd=ROOT)


def model_ratios(jobs: Sequence[Any], results: Sequence[Any]
                 ) -> Dict[str, float]:
    """Ratios read from the program's own results (single-core jobs)."""
    from repro.core.base import PredictionOutcome
    from repro.cpu.ooo_core import geometric_mean
    from repro.sim import SimulationJob
    hits = demand = predictions = harmful = 0
    groups: Dict[Tuple, Dict[str, Any]] = {}
    for job, result in zip(jobs, results):
        if not isinstance(job, SimulationJob):
            continue
        stats = result.hierarchy_stats
        hits += stats.l1_hits
        demand += stats.demand_accesses
        if job.predictor == "lp":
            predictions += result.predictor_stats.predictions
            harmful += result.predictor_stats.outcomes[
                PredictionOutcome.HARMFUL]
        config = job.config.name if job.config is not None else None
        groups.setdefault((job.workload, job.seed, config),
                          {})[job.predictor] = result
    speedups = [group["lp"].speedup_over(group["baseline"])
                for group in groups.values()
                if "lp" in group and "baseline" in group]
    return {
        "memory.l1_hit_ratio": hits / demand if demand else 0.0,
        "core.lp_accuracy": 1.0 - harmful / predictions if predictions
        else 0.0,
        "core.lp_speedup": geometric_mean(speedups) if speedups else 0.0,
    }


class Workload:
    """One benchmark workload.  Subclasses fill in the hooks below.

    ``run_pass`` times one pass of operations into ``clock`` and returns one
    digest per operation; ``ops_in`` converts a pass into throughput units
    (simulated accesses, jobs or requests).
    """

    name = "abstract"
    #: What one latency sample is (for the report).
    op_kind = "job"
    #: Set-ups per run; the median is reported.  A cheap set-up is repeated
    #: more often: starting an interpreter is the noisiest thing timed.
    setup_reps = 5
    #: ``DriftClock.window_s``: reference samples within this many seconds
    #: of a segment correct it.  Measured, not derived: on jobs a ~1 s
    #: window gave steadier medians and tails than the two bracketing
    #: samples alone, on serve-warm's requests the reverse (see README.md).
    window_s = 1.0
    #: Digests every pass must produce; ``None``: the first pass's.
    reference_ops: Optional[List[str]] = None
    #: Clock of the traced spans in this process (see layers.Tracer).
    span_clock = staticmethod(time.perf_counter)

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        #: Failed checks made outside the per-operation digests.
        self.check_failures: List[str] = []
        self.checks_attempted = 0
        #: Jobs of a pass and the results of the latest pass (job order).
        self.jobs: List[Any] = []
        self.results: List[Any] = []

    def check(self, ok: bool, what: str) -> None:
        self.checks_attempted += 1
        if not ok:
            self.check_failures.append(what)

    # Hooks ---------------------------------------------------------------
    def setup(self, clock: DriftClock) -> None:
        raise NotImplementedError

    def teardown_setup(self) -> None:
        """Undo one set-up repetition (all but the last)."""

    def gate(self) -> None:
        """Correctness checks made once, before any timing."""
        self.check(golden_matches(), "golden grid")

    def run_pass(self, clock: DriftClock) -> List[str]:
        raise NotImplementedError

    def ops_in(self, digests: Sequence[str]) -> int:
        return len(digests)

    def start_tracing(self) -> None:
        """Turn tracing on in processes other than this one."""

    def counters(self) -> Dict[str, float]:
        """Program counters whose change over the traced passes is read."""
        return {}

    def layer_counts(self, before: Dict[str, float],
                     after: Dict[str, float]) -> Dict[str, float]:
        """Counts and ratios for the traced report."""
        return model_ratios(self.jobs, self.results)

    def finish(self) -> None:
        """Checks made after the timed passes."""

    def close(self) -> None:
        """Stop everything the workload started."""

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def hit_ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def delta_ratio(before: Dict[str, float], after: Dict[str, float],
                hits: str, misses: str) -> float:
    return hit_ratio(after[hits] - before[hits],
                     after[misses] - before[misses])


# ======================================================================
# sim-hit / sim-miss
# ======================================================================
class SimWorkload(Workload):
    """Cold, serial, in-process simulation with the store off."""

    apps: Tuple[str, ...] = ()
    #: Measured and warm-up accesses of every job: sized so a pass takes a
    #: few seconds and building a system stays a small share of a job.
    accesses = 0
    warmup = 0

    def setup(self, clock: DriftClock) -> None:
        from repro.experiments import COMPARED_SYSTEMS
        from repro.sim import SimulationJob, TraceCache
        time_import(clock)
        rng = random.Random(f"{self.name}:{self.seed}")
        trace_seeds = {app: rng.randrange(1 << 20) for app in self.apps}
        self.jobs = [SimulationJob(workload=app, predictor=system,
                                   num_accesses=self.accesses,
                                   warmup_accesses=self.warmup,
                                   seed=trace_seeds[app])
                     for app in self.apps for system in COMPARED_SYSTEMS]
        self.cache = TraceCache(spill_dir=None)
        for app in self.apps:
            clock.timed(self.cache.get, app, self.accesses + self.warmup,
                        seed=trace_seeds[app])
        self.engine = untraced_engine(cache=self.cache)

    def run_pass(self, clock: DriftClock) -> List[str]:
        run = self.engine.run
        self.results = [clock.timed(run, [job])[0] for job in self.jobs]
        return [result_digest(result) for result in self.results]

    def ops_in(self, digests: Sequence[str]) -> int:
        return len(digests) * (self.accesses + self.warmup)

    def counters(self) -> Dict[str, float]:
        return {"trace_hits": self.cache.hits,
                "trace_misses": self.cache.misses}

    def layer_counts(self, before, after) -> Dict[str, float]:
        counts = model_ratios(self.jobs, self.results)
        counts["workloads.trace_cache_hit_ratio"] = delta_ratio(
            before, after, "trace_hits", "trace_misses")
        return counts


class SimHit(SimWorkload):
    name = "sim-hit"
    apps = HIT_APPS
    accesses = 2400
    warmup = 800


class SimMiss(SimWorkload):
    name = "sim-miss"
    apps = MISS_APPS
    accesses = 1200
    warmup = 400


# ======================================================================
# sweep-cold
# ======================================================================
class SweepCold(Workload):
    """The ``sweep`` grid into a fresh store and trace cache every pass."""

    name = "sweep-cold"

    def setup(self, clock: DriftClock) -> None:
        from repro.experiments import EXPERIMENTS, SWEEP_SEEDS, Scale
        time_import(clock)
        shift = len(SWEEP_SEEDS) * self.seed
        jobs = clock.timed(EXPERIMENTS["sweep"].jobs, Scale(**TINY_SCALE))
        self.jobs = [dataclasses.replace(job, seed=job.seed + shift)
                     for job in jobs]
        self.totals = {"trace_hits": 0, "trace_misses": 0,
                       "store_hits": 0, "store_misses": 0}
        self.passes = 0

    def run_pass(self, clock: DriftClock) -> List[str]:
        from repro.sim import ResultStore, TraceCache
        store_dir = self.work_dir / f"sweep-store-{self.passes}"
        self.passes += 1
        cache = TraceCache(spill_dir=None)
        store = ResultStore(store_dir)
        engine = untraced_engine(store=store, cache=cache)
        results = []
        last = len(self.jobs) - 1
        for index, job in enumerate(self.jobs):
            start = time.perf_counter()
            results.append(engine.run([job])[0])
            if index == last:
                store.flush_index()
            clock.add(time.perf_counter() - start)
        self.results = results
        for key, value in (("trace_hits", cache.hits),
                           ("trace_misses", cache.misses),
                           ("store_hits", store.hits),
                           ("store_misses", store.misses)):
            self.totals[key] += value
        digests = [result_digest(result) for result in results]
        shutil.rmtree(store_dir, ignore_errors=True)
        return digests

    def counters(self) -> Dict[str, float]:
        return dict(self.totals)

    def layer_counts(self, before, after) -> Dict[str, float]:
        counts = model_ratios(self.jobs, self.results)
        counts["workloads.trace_cache_hit_ratio"] = delta_ratio(
            before, after, "trace_hits", "trace_misses")
        counts["sim.store.hit_ratio"] = delta_ratio(
            before, after, "store_hits", "store_misses")
        return counts


# ======================================================================
# serve-warm
# ======================================================================
class ServeWarm(Workload):
    """A two-member fleet over a populated store, one closed-loop client.

    Traced runs start each member through ``member.py``, which installs the
    layer wrappers when :meth:`start_tracing` signals it.
    """

    name = "serve-warm"
    op_kind = "request"
    # Each set-up populates a store and starts a fleet (~9 s).
    setup_reps = 3
    window_s = 0.0
    reference_ops = ["ok"]
    # CPU time, like the members' spans: on one CPU the client's and the
    # members' CPU times add up to at most the client's wall time.
    span_clock = staticmethod(time.thread_time)

    def __init__(self, seed: int, work_dir: Path,
                 trace_members: bool = False) -> None:
        super().__init__(seed, work_dir)
        self.trace_members = trace_members
        self.members: List[subprocess.Popen] = []
        self.member_dumps: List[Path] = []
        self.reps = 0
        self.reference: Dict[str, str] = {}
        self.golden_ok = False
        self.member_hwm_mb = 0.0
        self.rng = random.Random(f"serve-warm:{seed}")
        self.deck = [name for rank, name in enumerate(FIGURES, 1)
                     for _ in range(round(DECK_TOP / rank))]
        self.pending: List[str] = []

    def setup(self, clock: DriftClock) -> None:
        time_import(clock)
        self.store_dir = self.work_dir / f"serve-store-{self.reps}"
        self.reps += 1
        self._populate(clock)
        self._start_fleet(clock)

    def _populate(self, clock: DriftClock) -> None:
        """Set-up phase: run the figure mix in-process into the store.

        The summaries are the reference every response must equal.
        """
        from repro.experiments import EXPERIMENTS, Scale, canonical_json
        from repro.sim import ResultStore
        scale = Scale(**TINY_SCALE)
        store = ResultStore(self.store_dir)
        engine = untraced_engine(store=store)
        self.jobs, self.results = [], []
        for name in FIGURES:
            jobs = EXPERIMENTS[name].jobs(scale)
            results: List[Any] = []
            for start in range(0, len(jobs), 8):
                results.extend(clock.timed(engine.run,
                                           jobs[start:start + 8]))
            stats = EXPERIMENTS[name].summarize(results, scale)
            self.reference[name] = stats_digest(stats)
            if name == "golden":
                self.golden_ok = canonical_json(stats) == \
                    GOLDEN_FILE.read_text(encoding="utf-8")
            self.jobs.extend(jobs)
            self.results.extend(results)
        clock.timed(store.flush_index)

    def _start_fleet(self, clock: DriftClock) -> None:
        """Set-up phase: start the members and wait until all are healthy."""
        from repro.service import FleetClient
        ready = [self.work_dir / f"member-{self.reps}-{index}.addr"
                 for index in range(FLEET_MEMBERS)]
        self.member_dumps = [self.work_dir / f"member-{self.reps}-{index}"
                             f".trace.json" for index in range(FLEET_MEMBERS)]

        def start() -> List[str]:
            for index in range(FLEET_MEMBERS):
                if self.trace_members:
                    command = [sys.executable,
                               str(Path(__file__).with_name("member.py")),
                               "--trace-out", str(self.member_dumps[index])]
                else:
                    command = [sys.executable, "-m", "repro", "serve",
                               "--fleet", "--port", "0"]
                command += ["--store", str(self.store_dir),
                            "--ready-file", str(ready[index])]
                self.members.append(subprocess.Popen(
                    command, env=child_env(), cwd=ROOT,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
            wait_for(ready, self.members)
            addresses = [path.read_text(encoding="utf-8").strip()
                         for path in ready]
            FleetClient(addresses).wait_healthy(timeout=60)
            return addresses

        self.addresses = clock.timed(start)
        self.client = FleetClient(self.addresses, timeout=60)

    def teardown_setup(self) -> None:
        self._stop_fleet()
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def _stop_fleet(self) -> None:
        for member in self.members:
            if member.poll() is None:
                member.send_signal(signal.SIGTERM)
        for member in self.members:
            try:
                member.wait(timeout=30)
            except subprocess.TimeoutExpired:
                member.kill()
                member.wait()
        self.members = []

    def gate(self) -> None:
        # The golden figure was reproduced in-process during population.
        self.check(self.golden_ok, "golden grid")

    def run_pass(self, clock: DriftClock) -> List[str]:
        """One request: the closed loop calls this until time is up."""
        if not self.pending:
            self.pending = self.rng.sample(self.deck, len(self.deck))
        name = self.pending.pop()
        response = clock.timed(self.client.submit, experiment=name,
                               scale=TINY_SCALE, wait=True)
        clock.flush()
        ok = response.get("state") == "done" and \
            stats_digest(response.get("stats")) == self.reference[name]
        return ["ok" if ok else "mismatch"]

    def start_tracing(self) -> None:
        flags = [path.with_name(path.name + ".on")
                 for path in self.member_dumps]
        for member in self.members:
            member.send_signal(signal.SIGUSR1)
        wait_for(flags, self.members)

    def counters(self) -> Dict[str, float]:
        stats = self.client.stats()
        counters = stats["counters"]
        members = stats["members"]
        return {
            "simulations": counters.get("simulations", 0),
            "jobs": counters.get("jobs", 0),
            "store_hits": counters.get("store_hits", 0),
            "trace_hits": sum(member["trace_cache"]["hits"]
                              for member in members),
            "trace_misses": sum(member["trace_cache"]["misses"]
                                for member in members),
            "member_jobs": [member["counters"]["jobs"] for member in members],
        }

    def finish(self) -> None:
        self.final = self.counters()
        self.check(self.final["simulations"] == 0,
                   "serve-warm simulated a job")
        self.check(self.final["store_hits"] == self.final["jobs"],
                   "serve-warm missed the store")
        self.member_hwm_mb = sum(_vm_hwm_mb(member.pid)
                                 for member in self.members)

    def peak_rss_mb(self) -> float:
        return super().peak_rss_mb() + self.member_hwm_mb

    def member_totals(self) -> List[Dict[str, Any]]:
        """Stop the fleet and read the traced members' layer totals."""
        self._stop_fleet()
        return [json.loads(path.read_text(encoding="utf-8"))
                for path in self.member_dumps]

    def layer_counts(self, before, after) -> Dict[str, float]:
        counts = model_ratios(self.jobs, self.results)
        jobs = [now - then for now, then in zip(after["member_jobs"],
                                                before["member_jobs"])]
        counts.update({
            "service.simulations": float(after["simulations"]),
            "sim.store.hit_ratio": hit_ratio(
                after["store_hits"] - before["store_hits"],
                after["jobs"] - before["jobs"]
                - (after["store_hits"] - before["store_hits"])),
            "service.fleet.max_member_share": max(jobs) / sum(jobs)
            if sum(jobs) else 0.0,
            "workloads.trace_cache_hit_ratio": delta_ratio(
                before, after, "trace_hits", "trace_misses"),
        })
        return counts

    def close(self) -> None:
        self._stop_fleet()


def wait_for(paths: Sequence[Path], processes: Sequence[subprocess.Popen],
             timeout: float = 60.0) -> None:
    """Wait until every path exists, failing if a process exits first."""
    deadline = time.monotonic() + timeout
    while not all(path.is_file() for path in paths):
        if time.monotonic() > deadline or any(
                process.poll() is not None for process in processes):
            raise RuntimeError("a fleet member failed to start")
        time.sleep(0.005)


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


WORKLOADS = {cls.name: cls for cls in (SimHit, SimMiss, SweepCold,
                                       ServeWarm)}


def make_work_dir() -> Path:
    """A scratch directory inside the checkout (removed by the caller)."""
    base = ROOT / ".repobench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))
