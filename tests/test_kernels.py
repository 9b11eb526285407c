"""Scalar-vs-batch kernel bit-identity and the kernel/options API.

The batch kernel's contract is *bit-identical results by construction*:
for every buffer and every system it must produce exactly the stats dict
the scalar reference loop produces — float accumulators included, which
is why these tests compare full serialized result dicts and per-access
result lists, never aggregates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory.block import AccessType
from repro.sim.config import SystemConfig
from repro.sim.engine import SimulationEngine, SimulationJob, execute_job
from repro.sim.kernels import (
    DEFAULT_KERNEL,
    KERNELS,
    BatchKernel,
    Kernel,
    ScalarKernel,
    kernel_names,
    resolve_kernel,
)
from repro.sim.options import EngineOptions
from repro.sim.store import serialize_result
from repro.sim.system import SimulatedSystem
from repro.trace import KIND_LOAD, KIND_STORE, TraceBuffer
from repro.experiments import COMPARED_SYSTEMS
from repro.workloads import APPLICATIONS


def _buffer(addresses, kinds=None, pcs=None) -> TraceBuffer:
    n = len(addresses)
    kinds = kinds if kinds is not None else [KIND_LOAD] * n
    pcs = pcs if pcs is not None else [0x400 + 4 * i for i in range(n)]
    return TraceBuffer(addresses, pcs, kinds, [8] * n, [False] * n,
                       [0] * n, [0] * n)


def _run(buffer: TraceBuffer, kernel: str, predictor: str = "lp"):
    system = SimulatedSystem(
        SystemConfig.paper_single_core().with_predictor(predictor))
    return serialize_result(
        system.run_trace(buffer, "crafted", kernel=kernel))


def assert_kernels_identical(buffer: TraceBuffer, predictor: str = "lp"):
    assert _run(buffer, "scalar", predictor) \
        == _run(buffer, "batch", predictor)


# ======================================================================
# Full-grid bit-identity: all apps x all compared systems
# ======================================================================
@pytest.mark.parametrize("app", APPLICATIONS)
def test_grid_bit_identity(app):
    """Full serialized stats dicts match for every compared system."""
    for predictor in COMPARED_SYSTEMS:
        job = SimulationJob(workload=app, predictor=predictor,
                            num_accesses=400, warmup_accesses=150, seed=3)
        scalar = serialize_result(execute_job(job, kernel="scalar"))
        batch = serialize_result(execute_job(job, kernel="batch"))
        assert scalar == batch, f"{app}/{predictor} diverged"


# ======================================================================
# Segment-boundary and degenerate buffers
# ======================================================================
class TestSegmentBoundaries:
    def test_empty_buffer(self):
        buffer = _buffer([64])[:0]
        assert len(buffer) == 0
        for kernel in kernel_names():
            system = SimulatedSystem(SystemConfig.paper_single_core())
            assert system.hierarchy.run_buffer(buffer, kernel=kernel) == []

    def test_single_access_buffer(self):
        assert_kernels_identical(_buffer([0x1000]))

    def test_fill_on_first_access(self):
        # Head access misses and fills; the tail must bulk off the fill.
        assert_kernels_identical(_buffer([0x4000] * 10))

    def test_runs_with_stores(self):
        kinds = ([KIND_LOAD, KIND_STORE, KIND_LOAD, KIND_STORE] * 5)[:18]
        assert_kernels_identical(_buffer([0x2000] * 18, kinds=kinds))

    def test_store_only_run(self):
        assert_kernels_identical(
            _buffer([0x8000] * 7, kinds=[KIND_STORE] * 7))

    def test_alternating_blocks(self):
        # Worst case for the batch kernel: every run has length 1.
        addresses = [0x1000, 0x2000] * 20
        assert_kernels_identical(_buffer(addresses))

    def test_sequential_blocks_trigger_prefetch_tags(self):
        # A sequential sweep tags next-line blocks; repeats then hit
        # tagged lines, exercising the tagged-hit fallback + retry.
        addresses = []
        for i in range(8):
            addresses.extend([0x10000 + 64 * i] * 5)
        addresses.extend([0x10000 + 64 * 3] * 6)
        assert_kernels_identical(_buffer(addresses))

    def test_run_longer_than_prefetch_window(self):
        # Bulk counts past the 32-entry window deques exercise the
        # eviction arithmetic (drop >= len branches).
        assert_kernels_identical(_buffer([0x3000] * 100))

    def test_window_straddling_runs(self):
        # Misses first (Trues in the inflight window), then a long run
        # that partially evicts them (0 < drop < len branch).
        addresses = [0x100000 + 4096 * i for i in range(20)]
        addresses.extend([0x200000] * 25)
        assert_kernels_identical(_buffer(addresses))

    def test_page_boundary_runs(self):
        # Same block never crosses a page, but adjacent runs alternate
        # pages so TLB recency moves between runs.
        addresses = []
        for i in range(6):
            addresses.extend([0x40000 + 4096 * (i % 2)] * 4)
        assert_kernels_identical(_buffer(addresses))

    @pytest.mark.parametrize("predictor", COMPARED_SYSTEMS)
    def test_crafted_mix_all_systems(self, predictor):
        rng = np.random.default_rng(11)
        pages = rng.integers(0, 64, size=120)
        runs = rng.integers(1, 9, size=120)
        addresses, kinds = [], []
        for page, run in zip(pages, runs):
            base = 0x100000 + int(page) * 4096
            addresses.extend([base + 64 * int(run)] * int(run))
            kinds.extend([KIND_STORE if (page + run) % 3 == 0
                          else KIND_LOAD] * int(run))
        assert_kernels_identical(_buffer(addresses, kinds=kinds),
                                 predictor=predictor)


# ======================================================================
# bulk_repeat_hits preconditions (direct unit probes)
# ======================================================================
class TestBulkPreconditions:
    @staticmethod
    def _snapshot(hierarchy):
        stats = hierarchy.stats
        return (stats.demand_accesses, stats.l1_hits, stats.loads,
                stats.stores, stats.total_demand_latency,
                dict(hierarchy.energy.by_category),
                hierarchy.tlb.l1.stats.hits,
                hierarchy.l1.stats.demand_hits, hierarchy.l1._clock)

    def test_refuses_cold_line_and_page_without_mutation(self):
        system = SimulatedSystem(SystemConfig.paper_single_core())
        hierarchy = system.hierarchy
        before = self._snapshot(hierarchy)
        block = 0x7000
        page = 0x7000 // hierarchy._l1_page_size
        assert hierarchy.bulk_repeat_hits(block, page, 4, 0) is False
        assert self._snapshot(hierarchy) == before

    def test_refuses_cold_tlb_page(self):
        system = SimulatedSystem(SystemConfig.paper_single_core())
        hierarchy = system.hierarchy
        hierarchy.run_buffer(_buffer([0x7000]), kernel="scalar")
        # Warm line, but probe a page the TLB has never seen.
        assert hierarchy.bulk_repeat_hits(0x7000, 0x7123456, 4, 0) is False

    def test_refuses_tagged_block(self):
        system = SimulatedSystem(SystemConfig.paper_single_core())
        hierarchy = system.hierarchy
        hierarchy.run_buffer(_buffer([0x7000]), kernel="scalar")
        prefetcher = hierarchy.l1_prefetcher
        page = 0x7000 // hierarchy._l1_page_size
        assert hierarchy.bulk_repeat_hits(0x7000, page, 4, 0) is True
        prefetcher._tagged[0x7000] = True
        assert hierarchy.bulk_repeat_hits(0x7000, page, 4, 0) is False

    def test_bulk_equals_scalar_counters(self):
        buffers = _buffer([0x7000] * 9)
        scalar = SimulatedSystem(SystemConfig.paper_single_core())
        batch = SimulatedSystem(SystemConfig.paper_single_core())
        results_s = scalar.hierarchy.run_buffer(buffers, kernel="scalar")
        results_b = batch.hierarchy.run_buffer(buffers, kernel="batch")
        assert results_s == results_b
        for a, b in ((scalar, batch),):
            assert a.hierarchy.stats.l1_hits == b.hierarchy.stats.l1_hits
            assert (a.hierarchy.stats.total_demand_latency
                    == b.hierarchy.stats.total_demand_latency)
            assert (a.hierarchy.energy.by_category
                    == b.hierarchy.energy.by_category)


# ======================================================================
# Kernel selection and EngineOptions resolution
# ======================================================================
class TestKernelSelection:
    def test_registry_and_names(self):
        assert set(KERNELS) == {"scalar", "batch"}
        assert kernel_names()[0] == DEFAULT_KERNEL == "batch"

    def test_resolve_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel(None).name == "batch"
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert resolve_kernel(None).name == "scalar"
        # Explicit argument beats the environment.
        assert resolve_kernel("batch").name == "batch"

    def test_resolve_instance_passthrough(self):
        kernel = ScalarKernel()
        assert resolve_kernel(kernel) is kernel
        assert isinstance(resolve_kernel("batch"), BatchKernel)
        assert isinstance(resolve_kernel("scalar"), Kernel)

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("turbo")

    def test_engine_threads_kernel(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert SimulationEngine(store=False).kernel == "batch"
        assert SimulationEngine(store=False,
                                kernel="scalar").kernel == "scalar"
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert SimulationEngine(store=False).kernel == "scalar"

    def test_engine_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            SimulationEngine(store=False, kernel="turbo")


class TestEngineOptions:
    def test_defaults(self, monkeypatch):
        for var in ("REPRO_KERNEL", "REPRO_JOBS", "REPRO_STORE",
                    "REPRO_TRACE_DIR", "REPRO_FAULTS", "REPRO_POOL"):
            monkeypatch.delenv(var, raising=False)
        options = EngineOptions.from_env()
        assert options == EngineOptions(kernel="batch", jobs=1, store=None,
                                        trace_dir=None, faults=None)
        assert options.pool == "process"

    def test_environment_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_STORE", "/tmp/s")
        monkeypatch.setenv("REPRO_TRACE_DIR", "")
        monkeypatch.setenv("REPRO_FAULTS", "store.append:eio@times=1")
        options = EngineOptions.from_env()
        assert options.kernel == "scalar"
        assert options.jobs == 4
        assert options.store == "/tmp/s"
        assert options.trace_dir == ""  # empty disables spilling
        assert options.faults == "store.append:eio@times=1"

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        monkeypatch.setenv("REPRO_JOBS", "4")
        options = EngineOptions.from_env(kernel="batch", jobs=2)
        assert options.kernel == "batch"
        assert options.jobs == 2

    def test_bad_jobs_message(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError,
                           match="REPRO_JOBS must be an integer"):
            EngineOptions.from_env()

    def test_with_overrides(self):
        options = EngineOptions(kernel="scalar", jobs=2)
        updated = options.with_overrides(kernel="batch")
        assert updated.kernel == "batch" and updated.jobs == 2
        assert options.kernel == "scalar"  # frozen, copy-on-write

    def test_pool_knob_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL", "thread")
        assert EngineOptions.from_env().pool == "thread"

    def test_explicit_sharding_beats_environment(self, monkeypatch):
        # The worker count and pool kind decide how a grid is spread over
        # workers; explicit values win over REPRO_JOBS / REPRO_POOL.
        monkeypatch.setenv("REPRO_JOBS", "8")
        monkeypatch.setenv("REPRO_POOL", "thread")
        options = EngineOptions.from_env(jobs=2, pool="process")
        assert options.jobs == 2
        assert options.pool == "process"

    def test_bad_pool_kind_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="pool kind"):
            EngineOptions.from_env(pool="fibers")
        monkeypatch.setenv("REPRO_POOL", "fibers")
        with pytest.raises(ValueError, match="pool kind"):
            EngineOptions.from_env()


# ======================================================================
# The repro.api facade
# ======================================================================
class TestApiFacade:
    def test_blessed_surface(self):
        import repro.api as api
        for name in ("run_job", "run_figure", "open_store", "connect",
                     "EngineOptions", "SimulationJob", "MixJob",
                     "resolve_kernel", "SimulationEngine"):
            assert hasattr(api, name), name
            assert name in api.__all__, name

    def test_run_job_matches_engine(self):
        from repro.api import run_job
        job = SimulationJob(workload="stream", predictor="lp",
                            num_accesses=200, warmup_accesses=50)
        direct = serialize_result(execute_job(job, kernel="batch"))
        via_api = serialize_result(run_job(job, store=False))
        assert direct == via_api

    def test_open_store_memoizes(self, tmp_path, monkeypatch):
        from repro.api import open_store
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert open_store() is None
        first = open_store(tmp_path / "store")
        assert open_store(tmp_path / "store") is first
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        assert open_store() is first

    def test_run_figure_rejects_unknown(self):
        from repro.api import run_figure
        with pytest.raises(ValueError, match="unknown experiment"):
            run_figure("figure999")


class TestServiceKernel:
    def test_stats_surface_kernel(self, tmp_path):
        from repro.service import SimulationService
        service = SimulationService(tmp_path / "store", jobs=1,
                                    kernel="scalar")
        try:
            payload = service.stats()
            assert payload["kernel"] == "scalar"
        finally:
            service.close()

    def test_default_kernel_in_stats(self, tmp_path, monkeypatch):
        from repro.service import SimulationService
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        service = SimulationService(tmp_path / "store", jobs=1)
        try:
            assert service.stats()["kernel"] == "batch"
        finally:
            service.close()


# ======================================================================
# The access() record path stays equivalent to the kernel seam
# ======================================================================
def test_record_path_matches_kernels():
    addresses = [0x5000] * 6 + [0x6000, 0x5000, 0x5008]
    buffer = _buffer(addresses)
    via_buffer = SimulatedSystem(SystemConfig.paper_single_core())
    via_records = SimulatedSystem(SystemConfig.paper_single_core())
    buffer_results = via_buffer.hierarchy.run_buffer(buffer, kernel="batch")
    record_results = via_records.hierarchy.run_trace(
        [buffer[i] for i in range(len(buffer))])
    assert buffer_results == record_results


def test_store_access_marks_line_dirty():
    system = SimulatedSystem(SystemConfig.paper_single_core())
    hierarchy = system.hierarchy
    kinds = [KIND_LOAD] + [KIND_STORE] * 3
    hierarchy.run_buffer(_buffer([0x9000] * 4, kinds=kinds), kernel="batch")
    l1 = hierarchy.l1
    if l1._block_shift >= 0:
        set_index = (0x9000 >> l1._block_shift) & l1._set_mask
        way = l1._tag_to_way[set_index].get(0x9000 >> l1._tag_shift)
    else:
        set_index, way = l1._find(0x9000)
    assert way is not None
    assert l1._lines[set_index][way].dirty
