"""N-level memory hierarchy with sequential and level-predicted lookup.

This is the central substrate of the reproduction: a functional model of the
paper's simulated system (Table I) — private L1 and L2, a shared non-inclusive
L3 with a collocated directory, a DDR4 channel, per-level prefetchers with
throttling, TLBs — plus the *level-predicted* lookup path that the paper adds
on the L1 miss path.

The hierarchy is not fixed to that triple: a :class:`CoreMemoryHierarchy`
is built from a declarative :class:`~repro.memory.spec.HierarchySpec`
(the paper's by default), and any chain of two or more cache levels runs
through the same scalar and batch kernels.  The level
predictor's target space stays the paper's — the whole private
intermediate group is classified as ``Level.L2`` and the shared LLC as
``Level.L3`` — so predictors, statistics and stored results keep their
exact shapes at any depth.  Every depth, the paper's three levels
included, runs one miss walker: ``_locate_chain`` finds the block,
``_timed_path_chain`` times the lookup path and ``_fill_on_response_chain``
moves the block up the private chain.

The model is trace driven: :meth:`CoreMemoryHierarchy.access` services one
memory reference, returning an :class:`AccessResult` with the load latency,
the levels looked up (for energy), the predicted levels and the misprediction
outcome.  The out-of-order core model (``repro.cpu``) converts these per-access
latencies into cycles and IPC.

Timing model
============

For a block found at level ``A`` with prediction set ``P``:

* Levels closer than ``A`` that appear in ``P`` are looked up (energy + port
  pressure) but, because predicted levels are probed in parallel, they do not
  serialise the path unless the prediction *is* the sequential fallback.
* Levels closer than ``A`` that are *not* in ``P`` are skipped entirely: no tag
  energy, no added latency beyond the bus hop (an MSHR entry is still
  allocated on the way, as the paper requires for the fill path).
* Bypassing the private L2 when it actually holds the block is the *harmful*
  case: the collocated directory detects it during the LLC tag access and a
  recovery transaction re-issues the request to L2 (Section III.E).
* Predicting main memory launches the DRAM access as soon as the request
  reaches the LLC/directory (Figure 6(c)); the directory check overlaps with
  the DRAM access, so a correct MEM prediction hides the LLC tag latency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Deque, Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

from ..energy.model import EnergyAccount, EnergyParameters
from ..prefetch.base import NullPrefetcher, PrefetchAccess, Prefetcher
from ..prefetch.nextline import TaggedNextLinePrefetcher
from .block import (
    AccessResult,
    AccessType,
    CoherenceState,
    Level,
    MemoryAccess,
    block_address,
)
from .cache import Cache, EvictionInfo
from .directory import Directory
from .dram import DRAMModel
from .interconnect import Interconnect
from .spec import HierarchySpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from ..core.base import LevelPredictor, Prediction

# Lazily bound references to repro.core.base types (a module-scope import
# would be circular: repro.core imports Level from this package).  Bound once
# by the first CoreMemoryHierarchy construction instead of re-importing on
# every access() call, which showed up in profiles.
_Prediction = None
_HARMFUL = None
#: Per-level singletons for the Ideal system's oracle predictions.
_IDEAL_PREDICTIONS: Dict[Level, "Prediction"] = {}

#: Module-level bindings of the hot enum members (LOAD_GLOBAL is cheaper
#: than the two-step attribute chain in the per-access paths).
_LOAD = AccessType.LOAD
_STORE = AccessType.STORE
_L1 = Level.L1
_L2 = Level.L2
_L3 = Level.L3
_MEM = Level.MEM
_PREFETCH = AccessType.PREFETCH
_MODIFIED = CoherenceState.MODIFIED
_EXCLUSIVE = CoherenceState.EXCLUSIVE

#: Shared per-access tuples (avoid re-allocating on every access).
_LOOKED_L1 = (Level.L1,)
_NO_LEVELS: tuple = ()
_BYPASSED_L2 = (Level.L2,)
_BYPASSED_L3 = (Level.L3,)
_BYPASSED_L2_L3 = (Level.L2, Level.L3)
#: Shared _locate_chain answers for blocks outside the private chain.
_IN_LLC = (Level.L3, None, None)
_IN_MEMORY = (Level.MEM, None, None)
#: The six shapes of the post-L1 lookup path (see _timed_path_chain).
_LOOKED_L2 = (Level.L2,)
_LOOKED_L3 = (Level.L3,)
_LOOKED_L2_L3 = (Level.L2, Level.L3)
_LOOKED_L3_MEM = (Level.L3, Level.MEM)
_LOOKED_L2_L3_MEM = (Level.L2, Level.L3, Level.MEM)
_LOOKED_RECOVERY = (Level.L3, Level.L2)


def _bind_core_types() -> None:
    global _Prediction, _HARMFUL
    if _Prediction is None:
        from ..core.base import Prediction, PredictionOutcome

        _Prediction = Prediction
        _HARMFUL = PredictionOutcome.HARMFUL
        for level in (Level.L2, Level.L3, Level.MEM):
            _IDEAL_PREDICTIONS[level] = Prediction(levels=(level,),
                                                   source="ideal")


@dataclass(slots=True)
class HierarchyStats:
    """Per-core counters for latency, misses and prediction behaviour."""

    demand_accesses: int = 0
    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    memory_accesses: int = 0
    remote_cache_hits: int = 0
    total_demand_latency: float = 0.0
    miss_latency: float = 0.0
    predictions: int = 0
    recoveries: int = 0
    parallel_cache_probes: int = 0
    speculative_dram_launches: int = 0
    cancelled_dram_launches: int = 0
    prefetches_issued: int = 0
    prefetches_dropped_mshr: int = 0

    @property
    def l1_misses(self) -> int:
        return self.demand_accesses - self.l1_hits

    @property
    def l2_misses(self) -> int:
        """Demand accesses that missed both L1 and L2."""
        return self.l1_misses - self.l2_hits

    @property
    def l3_misses(self) -> int:
        return self.memory_accesses

    @property
    def average_memory_access_latency(self) -> float:
        if not self.demand_accesses:
            return 0.0
        return self.total_demand_latency / self.demand_accesses

    @property
    def average_miss_latency(self) -> float:
        misses = self.l1_misses
        return self.miss_latency / misses if misses else 0.0

    def reset(self) -> None:
        for name, f in self.__dataclass_fields__.items():
            setattr(self, name, 0.0 if isinstance(f.default, float) else 0)


class SharedMemorySystem:
    """Resources shared by every core: the LLC, directory, DRAM and the
    LLC prefetcher."""

    def __init__(self, config: HierarchySpec, num_cores: int = 1,
                 llc_prefetcher: Optional[Prefetcher] = None,
                 energy_params: Optional[EnergyParameters] = None) -> None:
        self.config = config
        self.num_cores = num_cores
        self.l3 = Cache(config.llc.cache_config(Level.L3),
                        name=config.llc.name)
        self.dram = DRAMModel(config.memory.dram_config())
        self.directory = Directory(num_cores=num_cores)
        self.llc_prefetcher = llc_prefetcher or NullPrefetcher()
        self.energy_params = energy_params or EnergyParameters()
        self.dram_writebacks = 0

    def l3_eviction_to_memory(self, eviction: EvictionInfo,
                              account: EnergyAccount) -> None:
        """Handle an LLC eviction: dirty lines are written back to DRAM."""
        if eviction.dirty:
            self.dram.access(eviction.block_addr, is_write=True)
            account.charge("dram", self.energy_params.dram_access_nj)
            self.dram_writebacks += 1
        if eviction.prefetched_unused:
            self.llc_prefetcher.record_useless()


class CoreMemoryHierarchy:
    """The per-core view of the memory system (private levels + shared LLC).

    Args:
        config: The declarative
            :class:`~repro.memory.spec.HierarchySpec` (any depth ≥ 2);
            defaults to the paper's single-core Table I hierarchy.
        shared: The shared LLC/directory/DRAM; construct one
            :class:`SharedMemorySystem` (from the same config) and pass it
            to every core.
        predictor: The level predictor on the L1 miss path.  Defaults to the
            :class:`SequentialPredictor`, which reproduces the baseline.
        l1_prefetcher / l2_prefetcher: Prefetchers attached to the private
            levels (tagged next-line in the paper's baseline).  The L2
            prefetcher trains for the first private intermediate; deeper
            intermediates carry no prefetcher.
        core_id: This core's index in the directory.
    """

    __slots__ = (
        "config", "shared", "predictor", "l1", "l2", "tlb",
        "l1_prefetcher", "l2_prefetcher", "interconnect", "energy", "stats",
        "core_id", "_block_size", "_block_mask", "_page_shift",
        "_l1_page_size",
        "_intermediates", "_private", "_holders", "_fill_order",
        "_fill_above", "_closer", "_deposit_mshrs",
        "_l1_hit_latency", "_l1_miss_detect",
        "_l3_hit_latency", "_l3_tag_latency",
        "_port_penalty", "_memory_speculative", "_ideal_miss_latency",
        "_ic_l1_l2", "_ic_l2_llc", "_ic_llc_mem",
        "_tlb_nj", "_l1_nj", "_tlb_l1_nj", "_l3_nj", "_l3_tag_nj",
        "_l3_wb_nj",
        "_dram_nj", "_bus_nj", "_directory_nj", "_prefetch_budget",
        "_l1_hit_result", "_pf_access",
        "_inflight_misses", "_inflight_miss_count", "_recent_prefetches",
        "_recent_prefetch_count", "_prefetches_this_access",
    )

    def __init__(
        self,
        config: Optional[HierarchySpec] = None,
        shared: Optional[SharedMemorySystem] = None,
        predictor: Optional[LevelPredictor] = None,
        l1_prefetcher: Optional[Prefetcher] = None,
        l2_prefetcher: Optional[Prefetcher] = None,
        core_id: int = 0,
        active_cores: int = 1,
    ) -> None:
        # Imported here (not at module scope) to avoid a circular import:
        # the predictor interface needs Level from this package.
        from ..core.base import SequentialPredictor

        _bind_core_types()
        self.config = spec = config or HierarchySpec.paper_single_core()
        self.shared = shared or SharedMemorySystem(spec, num_cores=1)
        self.predictor = predictor or SequentialPredictor()
        level_names = tuple(level.name for level in spec.levels)
        l1_cfg = spec.l1.cache_config(Level.L1)
        inter_cfgs = tuple(level.cache_config(Level.L2)
                           for level in spec.intermediates)
        llc_cfg = spec.llc.cache_config(Level.L3)
        self.tlb = spec.tlb.build()
        self.l1 = Cache(l1_cfg, name=f"{level_names[0]}.{core_id}")
        self._intermediates = tuple(
            Cache(inter_cfg, name=f"{level_names[1 + index]}.{core_id}")
            for index, inter_cfg in enumerate(inter_cfgs))
        # Compat alias: the first private intermediate (the paper's L2), or
        # None in a 2-level hierarchy.
        self.l2 = self._intermediates[0] if self._intermediates else None
        self.l1_prefetcher = l1_prefetcher or NullPrefetcher()
        self.l2_prefetcher = l2_prefetcher or NullPrefetcher()
        self.interconnect = Interconnect(
            spec.interconnect.interconnect_config(),
            active_cores=active_cores)
        self.energy = EnergyAccount(params=self.shared.energy_params)
        self.stats = HierarchyStats()
        self.core_id = core_id
        self._block_size = l1_cfg.block_size
        # Hot-path precomputation: block mask (power-of-two line sizes),
        # per-level latencies as floats and per-structure energies, so
        # access() performs no repeated config/dataclass attribute chains.
        bs = self._block_size
        self._block_mask = ~(bs - 1) if (bs & (bs - 1)) == 0 else None
        # Page decomposition parameters of the first-level TLB, so access()
        # and the columnar replay path compute identical page numbers.
        self._l1_page_size = self.tlb.l1.config.page_size
        self._page_shift = self.tlb.l1._page_shift
        self._l1_hit_latency = float(l1_cfg.hit_latency)
        self._l1_miss_detect = float(l1_cfg.miss_detect_latency)
        self._l3_hit_latency = float(llc_cfg.hit_latency)
        self._l3_tag_latency = float(llc_cfg.tag_latency)
        self._port_penalty = spec.parallel_port_penalty
        self._memory_speculative = spec.memory_speculative_launch
        self._ideal_miss_latency = spec.ideal_miss_latency
        # Interconnect hop latencies are constant per instance (contention
        # depends only on active_cores); precompute them and bump the
        # transfer counters inline instead of calling per hop.
        ic_cfg = self.interconnect.config
        contention = (self.interconnect.active_cores - 1) \
            * ic_cfg.contention_per_extra_core
        self._ic_l1_l2 = float(ic_cfg.l1_to_l2)
        self._ic_l2_llc = ic_cfg.l2_to_llc + contention
        self._ic_llc_mem = ic_cfg.llc_to_memory + contention
        params = self.shared.energy_params
        self._tlb_nj = params.tlb_access_nj
        # Spec-level read_energy_nj overrides replace the role-based default
        # for the full per-access energy of that level (for the LLC it also
        # stands in for the tag-only probe — a documented simplification);
        # write_energy_nj prices the dirty-writeback deposit into the LLC.
        l1_read = spec.l1.read_energy_nj
        self._l1_nj = params.l1_access_nj if l1_read is None else l1_read
        self._tlb_l1_nj = params.tlb_access_nj + self._l1_nj
        chain_nj = tuple(
            params.l2_access_nj if level.read_energy_nj is None
            else level.read_energy_nj
            for level in spec.intermediates)
        # The private chain as walk tables, built once so the miss path
        # does no per-miss index arithmetic.  ``_private`` is closest-first
        # (index, cache, energy, hit latency, miss detection) per level;
        # ``_holders`` pairs each cache with its ``_locate_chain`` answer;
        # ``_fill_order`` is (index, cache) deepest-first;
        # ``_fill_above[h]`` is the part of ``_fill_order`` closer than
        # level ``h``; ``_closer[i]`` the caches closer than level ``i``.
        caches = self._intermediates
        self._private = tuple(
            (index, cache, nj, float(c.hit_latency),
             float(c.miss_detect_latency))
            for index, (cache, nj, c)
            in enumerate(zip(caches, chain_nj, inter_cfgs)))
        self._holders = tuple((cache, (_L2, None, index))
                              for index, cache in enumerate(caches))
        self._fill_order = tuple(reversed(tuple(enumerate(caches))))
        self._fill_above = tuple(self._fill_order[len(caches) - holder:]
                                 for holder in range(len(caches)))
        self._closer = tuple(caches[:index] for index in range(len(caches)))
        # The return path's MSHR entry lives at the deepest private
        # intermediate, the fill deposit point (None in a 2-level chain).
        self._deposit_mshrs = caches[-1].mshrs if caches else None
        llc_read = spec.llc.read_energy_nj
        if llc_read is None:
            self._l3_nj = params.llc_tag_access_nj \
                + params.llc_data_access_nj
            self._l3_tag_nj = params.llc_tag_access_nj
        else:
            self._l3_nj = llc_read
            self._l3_tag_nj = llc_read
        llc_write = spec.llc.write_energy_nj
        self._l3_wb_nj = self._l3_nj if llc_write is None else llc_write
        self._dram_nj = params.dram_access_nj
        self._bus_nj = params.bus_transfer_nj
        self._directory_nj = params.directory_access_nj
        budget_cfg = inter_cfgs[-1] if inter_cfgs else l1_cfg
        self._prefetch_budget = (1.0 - budget_cfg.mshr_demand_reserve) \
            * budget_cfg.mshr_entries
        # Shared result object for the overwhelmingly common outcome: an L1
        # hit with a first-level TLB hit (translation latency 0).  The object
        # is read-only by every consumer (the core model reads .latency).
        self._l1_hit_result = AccessResult(Level.L1, self._l1_hit_latency,
                                           _LOOKED_L1)
        # One mutable PrefetchAccess record reused for every prefetcher
        # observation; no prefetcher retains the record past _generate().
        self._pf_access = PrefetchAccess(0, 0, False, True)
        self._inflight_misses: Deque[bool] = deque(
            maxlen=spec.prefetch_inflight_window)
        self._inflight_miss_count = 0
        # Prefetches issued per recent demand access (same sliding window),
        # used to bound the prefetch issue rate to the non-reserved MSHR share.
        self._recent_prefetches: Deque[int] = deque(
            maxlen=spec.prefetch_inflight_window)
        self._recent_prefetch_count = 0
        self._prefetches_this_access = 0

    # ==================================================================
    # Public API
    # ==================================================================
    def access(self, access: MemoryAccess) -> AccessResult:
        """Service one demand :class:`MemoryAccess` record and return its
        outcome.

        Record-level entry point: validates the access type, decomposes the
        address into its block/page components once, and delegates to
        :meth:`access_decomposed` — the single exact scalar path that every
        kernel in :mod:`repro.sim.kernels` also bottoms out in.  Because the
        record path and the buffer replay path share that seam, they cannot
        drift: :meth:`run_buffer` over a :class:`~repro.trace.TraceBuffer`
        and :meth:`access` over the equivalent record list produce
        bit-identical results.
        """
        atype = access.access_type
        if atype is not _LOAD and atype is not _STORE:
            raise ValueError("access() only services demand loads and stores")
        address = access.address
        mask = self._block_mask
        block = (address & mask) if mask is not None \
            else block_address(address, self._block_size)
        shift = self._page_shift
        page = (address >> shift) if shift >= 0 \
            else address // self._l1_page_size
        return self.access_decomposed(address, block, page, atype, access.pc)

    def access_decomposed(self, address: int, block: int, page: int,
                          atype: AccessType, pc: int) -> AccessResult:
        """Service one demand access from its pre-decomposed components.

        Args:
            address: Full byte address.
            block: Block-aligned address (``address`` masked to the line).
            page: Page number under the first-level TLB's page size.
            atype: ``AccessType.LOAD`` or ``AccessType.STORE`` (not checked
                here — :meth:`access` and the buffer replay validate).
            pc: Program counter of the issuing instruction.
        """
        stats = self.stats
        stats.demand_accesses += 1
        if atype is _LOAD:
            stats.loads += 1
        else:
            stats.stores += 1

        translation_latency = self.tlb.translate_latency_page(page, address)

        # ------------------------------------------------------------------
        # L1 lookup (the level predictor never targets L1).
        # ------------------------------------------------------------------
        l1 = self.l1
        l1_hit, l1_was_prefetched = l1.access_block(block, atype)
        self.energy.charge("hierarchy", self._tlb_l1_nj)
        self._train_l1_prefetcher(address, pc, atype is _LOAD, l1_hit)

        # Inlined _note_inflight (once per access, both branches).
        inflight = self._inflight_misses
        if len(inflight) == inflight.maxlen and inflight[0]:
            self._inflight_miss_count -= 1
        inflight.append(not l1_hit)
        if not l1_hit:
            self._inflight_miss_count += 1
        recent = self._recent_prefetches
        prefetches = self._prefetches_this_access
        if len(recent) == recent.maxlen:
            self._recent_prefetch_count -= recent[0]
        recent.append(prefetches)
        if prefetches:
            self._recent_prefetch_count += prefetches
            self._prefetches_this_access = 0

        if l1_hit:
            if l1_was_prefetched:
                self.l1_prefetcher.record_useful()
            stats.l1_hits += 1
            if translation_latency == 0:
                stats.total_demand_latency += self._l1_hit_latency
                return self._l1_hit_result
            latency = self._l1_hit_latency + translation_latency
            stats.total_demand_latency += latency
            return AccessResult(_L1, latency, _LOOKED_L1)

        # ------------------------------------------------------------------
        # L1 miss: consult the level predictor, find the block, time the path.
        # ------------------------------------------------------------------
        latency = self._l1_miss_detect + translation_latency
        l1.mshrs.allocate(block, atype)

        predictor = self.predictor
        actual, remote_core, holder = self._locate_chain(block)
        if self._ideal_miss_latency:
            # The paper's Ideal system: a perfect, zero-cost level prediction
            # on every L1 miss — the request goes straight to the level that
            # holds the block with no predictor latency and no wasted lookups.
            prediction = _IDEAL_PREDICTIONS[actual]
        else:
            prediction = predictor.predict(block, pc)
            latency += predictor.prediction_latency
            self.energy.charge_predictor(
                predictor.energy_per_prediction_nj())
        stats.predictions += 1

        outcome = predictor.train(block, pc, prediction, actual)
        predictor.on_hit(actual)

        path_latency, looked_up, recovered = self._timed_path_chain(
            prediction, actual, address, pc, atype, remote_core, block,
            holder)
        latency += path_latency
        if recovered:
            stats.recoveries += 1

        # Inlined _account_hit_level (once per miss).
        if actual is _L2:
            stats.l2_hits += 1
        elif actual is _L3:
            stats.l3_hits += 1
            if remote_core is not None:
                stats.remote_cache_hits += 1
        else:
            stats.memory_accesses += 1
        self._fill_on_response_chain(block, atype, actual, holder)
        l1.mshrs.release(block)

        stats.total_demand_latency += latency
        stats.miss_latency += latency
        return AccessResult(
            actual,
            latency,
            looked_up,
            self._bypassed(prediction, actual),
            prediction.levels,
            outcome is _HARMFUL,
            prediction.used_pld,
        )

    def run_trace(self, accesses, kernel=None) -> List[AccessResult]:
        """Convenience helper: service a trace buffer or access iterable.

        Buffers delegate to :meth:`run_buffer` (and its kernel seam);
        legacy record iterables are serviced one :meth:`access` at a time,
        which is the scalar path by definition — both representations
        produce bit-identical results.
        """
        from ..trace import TraceBuffer

        if isinstance(accesses, TraceBuffer):
            return self.run_buffer(accesses, kernel=kernel)
        service = self.access
        return [service(access) for access in accesses]

    def run_buffer(self, buffer, kernel=None) -> List[AccessResult]:
        """Service a whole columnar trace buffer through a kernel.

        This is the engine's replay path and the simulator's single trace
        execution seam: the selected kernel (see :mod:`repro.sim.kernels`)
        owns the replay loop.  The scalar kernel services every access
        through :meth:`access_decomposed`; the batch kernel resolves
        repeat-block L1-hit runs in bulk via :meth:`bulk_repeat_hits` and
        falls back to the same scalar path everywhere else, so every
        kernel produces bit-identical results.

        Args:
            buffer: The :class:`~repro.trace.TraceBuffer` to replay.
            kernel: A kernel name (``"scalar"``/``"batch"``), a
                :class:`~repro.sim.kernels.Kernel` instance, or ``None``
                to resolve ``REPRO_KERNEL`` from the environment (default
                ``"batch"``).
        """
        # Imported lazily: repro.sim.kernels imports from this package.
        from ..sim.kernels import resolve_kernel

        return resolve_kernel(kernel).run(self, buffer)

    def bulk_repeat_hits(self, block: int, page: int, count: int,
                         store_count: int) -> bool:
        """Apply the exact side effects of ``count`` repeat L1 hits at once.

        The batch kernel calls this for the tail of a same-block run: the
        head access (serviced through the exact scalar path immediately
        before) either hit L1 or filled it on response, so the line should
        be resident and most-recently-used and the TLB page warm.  Every
        precondition is verified against the live model state; when one
        fails — the L1 is not LRU-managed, the line is absent or still
        carries its prefetched bit, the line's prefetch tag would trigger
        on the next hit, the L1 prefetcher is not a guaranteed no-op for
        untagged hits, or the page left the first-level TLB — this returns
        ``False`` without touching any state and the kernel services the
        next access through the scalar path before retrying.

        On success every side effect the scalar path would perform for
        these ``count`` accesses (``store_count`` of them stores) is
        replayed: integer counters advance in one add, float accumulators
        (demand latency, hierarchy energy) fold left one addition per
        access so the rounding is bit-identical, replacement and TLB
        recency state collapse to their final values, and the prefetch
        window deques age element-exactly.
        """
        l1 = self.l1
        lru = l1._lru_timestamps
        if lru is None:
            # Non-LRU replacement advances per access (and may consume
            # RNG state); only the scalar path is exact.
            return False
        if l1._block_shift >= 0:
            set_index = (block >> l1._block_shift) & l1._set_mask
            way = l1._tag_to_way[set_index].get(block >> l1._tag_shift)
        else:
            set_index, way = l1._find(block)
        if way is None:
            return False
        line = l1._lines[set_index][way]
        if line.prefetched:
            # The scalar path would clear the bit and credit the
            # prefetcher's accuracy accounting.
            return False
        prefetcher = self.l1_prefetcher
        prefetcher_type = type(prefetcher)
        if prefetcher_type is TaggedNextLinePrefetcher:
            if block in prefetcher._tagged:
                # A hit on a tagged block triggers the next prefetch; one
                # scalar access consumes the tag, then the rest can bulk.
                return False
        elif prefetcher_type is not NullPrefetcher:
            # Unknown prefetchers (stride, subclasses) may train on every
            # access; no untagged-hit no-op guarantee.
            return False
        tlb_l1 = self.tlb.l1
        entries = tlb_l1._sets[page % tlb_l1._num_sets]
        if page not in entries:
            return False

        # All preconditions hold: replay the side effects of `count`
        # translate + L1-hit iterations of access_decomposed.
        stats = self.stats
        stats.demand_accesses += count
        stats.loads += count - store_count
        stats.stores += store_count
        stats.l1_hits += count

        entries.move_to_end(page)
        tlb_l1.stats.hits += count

        l1._clock += count
        line.last_touch = l1._clock
        policy = l1._policy
        policy._clock += count
        lru[set_index][way] = policy._clock
        l1.stats.demand_hits += count
        if store_count:
            line.dirty = True
            line.state = CoherenceState.MODIFIED

        # Float accumulators fold left — one addition per access, in the
        # scalar path's order, so the rounding is bit-identical.
        by_category = self.energy.by_category
        energy = by_category.get("hierarchy", 0.0)
        step_nj = self._tlb_l1_nj
        total_latency = stats.total_demand_latency
        step_latency = self._l1_hit_latency
        for _ in range(count):
            energy += step_nj
            total_latency += step_latency
        by_category["hierarchy"] = energy
        stats.total_demand_latency = total_latency

        # Window bookkeeping: each hit appends False to the inflight-miss
        # window; the first repeat access appends (and publishes) the
        # prefetch count the head access accumulated after its own window
        # update, every later access appends zero.  The deques age
        # element-exactly; the running counts subtract what falls off.
        inflight = self._inflight_misses
        window = inflight.maxlen
        dropped = len(inflight) + count - window
        if dropped > 0:
            if dropped >= len(inflight):
                self._inflight_miss_count = 0
            else:
                self._inflight_miss_count -= sum(islice(inflight, dropped))
        inflight.extend(repeat(False, count))

        recent = self._recent_prefetches
        pending = self._prefetches_this_access
        dropped = len(recent) + count - window
        if dropped > 0:
            if dropped >= len(recent):
                self._recent_prefetch_count = \
                    pending if count <= window else 0
            else:
                self._recent_prefetch_count += \
                    pending - sum(islice(recent, dropped))
        else:
            self._recent_prefetch_count += pending
        recent.append(pending)
        if count > 1:
            recent.extend(repeat(0, count - 1))
        if pending:
            self._prefetches_this_access = 0
        return True

    # ==================================================================
    # Location and classification helpers
    # ==================================================================
    def _locate_chain(self, block: int
                      ) -> Tuple[Level, Optional[int], Optional[int]]:
        """Find where the block currently resides (after the L1 miss).

        Returns ``(level, remote_core, holder)``.  ``holder`` is the index
        of the private intermediate that holds the block (``None`` unless
        ``level`` is the private group ``Level.L2``).  ``remote_core`` is
        the other core whose private cache supplies the block through the
        directory, classified as an LLC-level hit for prediction purposes.
        """
        for cache, located in self._holders:
            if cache.contains_block(block):
                return located
        shared = self.shared
        if shared.l3.contains_block(block):
            return _IN_LLC
        remote = shared.directory.remote_holder(block, self.core_id)
        if remote is not None:
            return _L3, remote, None
        return _IN_MEMORY

    @staticmethod
    def _bypassed(prediction: Prediction, actual: Level) -> Tuple[Level, ...]:
        levels = prediction.levels or _BYPASSED_L2
        l2_bypassed = Level.L2 not in levels and Level.L2 < actual
        l3_bypassed = Level.L3 not in levels and Level.L3 < actual
        if l2_bypassed:
            return _BYPASSED_L2_L3 if l3_bypassed else _BYPASSED_L2
        if l3_bypassed:
            return _BYPASSED_L3
        return _NO_LEVELS

    # ==================================================================
    # Timing
    # ==================================================================
    def _timed_path_chain(
        self,
        prediction: Prediction,
        actual: Level,
        address: int,
        pc: int,
        atype: AccessType,
        remote_core: Optional[int],
        block: int,
        holder: Optional[int],
    ) -> Tuple[float, Tuple[Level, ...], bool]:
        """Latency of the post-L1 path, levels probed, recovery flag.

        A ``Level.L2`` prediction probes the private intermediate group in
        order; the private-only sequential fallback serialises each
        level's miss detection before forwarding.  Hop latencies:
        ``l1_to_l2`` into and between private levels, ``l2_to_llc`` into
        the shared LLC (a 2-level hierarchy pays only the LLC hop).  The
        MSHR entry for the return path is allocated at the deepest private
        intermediate — the fill deposit point — even when the group is
        bypassed (Section III.E).  The probed-level sequence is one of six
        fixed shapes, so shared tuples are returned instead of building a
        list per miss.
        """
        levels = prediction.levels or _BYPASSED_L2
        probe_l2 = _L2 in levels
        probe_l3 = _L3 in levels
        probe_mem = _MEM in levels
        charge = self.energy.charge
        is_load = atype is _LOAD

        # Port-pressure penalty when more than one on-chip cache is probed in
        # parallel (multi-way predictions, Section V.A / V.C).
        cache_probes = probe_l2 + probe_l3 + (_L1 in levels)
        if cache_probes > 1:
            port_penalty = self._port_penalty * (cache_probes - 1)
            self.stats.parallel_cache_probes += 1
        else:
            port_penalty = 0.0

        # "hierarchy"-category energy is accumulated locally and charged once
        # per path (one dict update instead of four-six).
        interconnect = self.interconnect
        latency = 0.0
        hierarchy_nj = 0.0
        deposit_mshrs = self._deposit_mshrs
        private = self._private

        # ---------------- Private intermediate stage ----------------
        if private:
            deposit_mshrs.allocate(block, atype)
            hop = self._ic_l1_l2
            bus_nj = self._bus_nj
            if probe_l2:
                sequential = not (probe_l3 or probe_mem)
                for index, cache, nj, hit_latency, miss_detect in private:
                    interconnect.transfers += 1
                    latency += hop
                    hierarchy_nj += bus_nj
                    cache.access_block(block, atype)
                    hierarchy_nj += nj
                    if index == holder:
                        latency += hit_latency + port_penalty
                        charge("hierarchy", hierarchy_nj)
                        self._train_l2_prefetcher(address, pc, is_load,
                                                  hit=True)
                        deposit_mshrs.release(block)
                        return latency, _LOOKED_L2, False
                    if sequential:
                        # Wait for this level's miss before forwarding.
                        latency += miss_detect
            elif actual is _L2:
                # Harmful misprediction: a private level held the block but
                # the whole group was bypassed.
                interconnect.transfers += 1
                latency += hop
                charge("hierarchy", bus_nj)
                latency += self._recover_to_chain(atype, block, holder)
                latency += port_penalty
                self._train_l2_prefetcher(address, pc, is_load, hit=True)
                deposit_mshrs.release(block)
                return latency, _LOOKED_RECOVERY, True
            else:
                # Bypassed but absent: the request still traverses the
                # private chain's bus on the way to the LLC.
                for _ in private:
                    interconnect.transfers += 1
                    latency += hop
                    hierarchy_nj += bus_nj

        # ---------------- LLC / directory stage ----------------
        interconnect.transfers += 1
        latency += self._ic_l2_llc
        hierarchy_nj += self._bus_nj + self._directory_nj
        shared = self.shared

        if actual is _L3:
            shared.l3.access_block(block, atype)
            hierarchy_nj += self._l3_nj
            llc_latency = self._l3_hit_latency
            if remote_core is not None:
                # Data forwarded from another core's private cache.
                llc_latency = (self._l3_tag_latency
                               + interconnect.cache_to_cache_latency())
            if probe_mem and self._memory_speculative:
                # A speculative DRAM access was launched and must be cancelled
                # by the return-path address-matching logic: energy, no time.
                charge("dram", self._dram_nj)
                self.stats.cancelled_dram_launches += 1
            latency += llc_latency + port_penalty
            charge("hierarchy", hierarchy_nj)
            self._train_llc_prefetcher(address, pc, is_load, hit=True)
            if deposit_mshrs is not None:
                deposit_mshrs.release(block)
            return latency, (_LOOKED_L2_L3 if probe_l2 else _LOOKED_L3), False

        # Block is in main memory.
        shared.l3.access_block(block, atype)
        hierarchy_nj += self._l3_tag_nj
        charge("hierarchy", hierarchy_nj)
        self._train_llc_prefetcher(address, pc, is_load, hit=False)
        dram_latency = shared.dram.access(address)
        charge("dram", self._dram_nj)
        interconnect.transfers += 1
        hop_to_memory = self._ic_llc_mem

        if probe_mem and self._memory_speculative:
            # DRAM access launched in parallel with the directory/tag check;
            # the response is released once the check confirms the block is
            # uncached, so the tag latency is hidden behind DRAM.
            self.stats.speculative_dram_launches += 1
            latency += max(self._l3_tag_latency,
                           hop_to_memory + dram_latency)
        else:
            latency += self._l3_tag_latency + hop_to_memory + dram_latency
        latency += port_penalty
        if deposit_mshrs is not None:
            deposit_mshrs.release(block)
        return latency, (_LOOKED_L2_L3_MEM if probe_l2 else _LOOKED_L3_MEM), \
            False

    def _recover_to_chain(self, atype: AccessType, block: int,
                          holder: int) -> float:
        """Misprediction recovery: the directory re-issues the request to
        the private level that holds the block."""
        charge = self.energy.charge
        latency = self.interconnect.l2_to_llc_latency()
        charge("hierarchy", self._bus_nj)
        # The collocated directory is consulted during the LLC tag access.
        latency += self._l3_tag_latency
        charge("hierarchy", self._l3_tag_nj)
        charge("hierarchy", self._directory_nj)
        self.shared.directory.detect_bypass_misprediction(block, self.core_id)
        # Recovery transaction back to the holder, then its access.
        latency += self.interconnect.recovery_latency()
        self.energy.charge_recovery(self._bus_nj + self._directory_nj)
        _, cache, nj, hit_latency, _ = self._private[holder]
        cache.access_block(block, atype)
        charge("hierarchy", nj)
        latency += hit_latency
        # Deallocate MSHR entries allocated past the actual level.
        self.shared.l3.mshrs.force_release(block)
        return latency

    # ==================================================================
    # Data movement (fills, evictions, writebacks)
    # ==================================================================
    def _fill_on_response_chain(self, block: int, atype: AccessType,
                                actual: Level,
                                holder: Optional[int]) -> None:
        """Move the block up the hierarchy after the response returns.

        Fills propagate deepest-first through every private intermediate
        (each is inclusive of the levels above it), then into L1.  In a
        2-level hierarchy L1 *is* the deepest private level, so the
        directory tracks L1 fills directly and the private-group
        (``Level.L2``) predictor notifications are skipped — the group is
        empty.
        """
        dirty = atype is _STORE
        state = _MODIFIED if dirty else _EXCLUSIVE
        predictor = self.predictor

        if actual is _L2:
            # The L1 fill from a private level is a demand fill observed on
            # its bus, so the predictor's location metadata is refreshed
            # with the truth (this is what repairs stale LocMap entries left
            # by unrecorded prefetch fills).
            predictor.on_fill(block, _L2)
            if dirty:
                self._private[holder][1].mark_dirty(block)
            # Inclusion upward: levels between the holder and L1 also fill.
            for index, cache in self._fill_above[holder]:
                eviction = cache.fill_block(block, atype, dirty=dirty,
                                            state=state)
                if eviction is not None:
                    self._handle_private_eviction(eviction, index)
        else:
            if actual is _MEM:
                # Memory fills also populate the (non-inclusive) LLC.
                l3_eviction = self.shared.l3.fill_block(
                    block, atype, dirty=False, state=state)
                if l3_eviction is not None:
                    self._handle_llc_eviction(l3_eviction)
                predictor.on_fill(block, _L3)
            fill_order = self._fill_order
            for index, cache in fill_order:
                eviction = cache.fill_block(block, atype, dirty=dirty,
                                            state=state)
                if eviction is not None:
                    self._handle_private_eviction(eviction, index)
            if fill_order:
                predictor.on_fill(block, _L2)
            self.shared.directory.record_private_fill(block, self.core_id,
                                                      dirty=dirty)

        l1_eviction = self.l1.fill_block(block, atype,
                                         dirty=dirty, state=state)
        if l1_eviction is not None:
            self._handle_l1_eviction(l1_eviction)

    def _handle_l1_eviction(self, eviction: EvictionInfo) -> None:
        if eviction.prefetched_unused:
            self.l1_prefetcher.record_useless()
        if self._private:
            if eviction.dirty:
                # The next private level is inclusive of L1: merge.
                self._private[0][1].mark_dirty(eviction.block_addr)
            return
        # 2-level hierarchy: L1 is the deepest private level — the
        # directory tracked this block, and dirty victims write back
        # straight into the (non-inclusive) LLC.
        self.shared.directory.record_private_eviction(eviction.block_addr,
                                                      self.core_id)
        if eviction.dirty:
            self._write_back(eviction.block_addr)

    def _handle_private_eviction(self, eviction: EvictionInfo,
                                 index: int) -> None:
        """Eviction from the private intermediate at ``index``."""
        if eviction.prefetched_unused and index == 0:
            self.l2_prefetcher.record_useless()
        block_addr = eviction.block_addr
        # Inclusion: a block leaving this level leaves every closer level.
        self.l1.invalidate(block_addr)
        for cache in self._closer[index]:
            cache.invalidate(block_addr)
        if index + 1 == len(self._private):
            # Leaving the deepest private level: the block leaves this
            # core's private group entirely.
            self.shared.directory.record_private_eviction(block_addr,
                                                          self.core_id)
            self.predictor.on_eviction(block_addr, _L2,
                                       dirty=eviction.dirty)
            if eviction.dirty:
                self._write_back(block_addr)
        elif eviction.dirty:
            # Dirty victims merge into the next-deeper private level.
            self._private[index + 1][1].mark_dirty(block_addr)

    def _write_back(self, block_addr: int) -> None:
        """A dirty victim leaving the private group lands in the LLC."""
        l3_eviction = self.shared.l3.fill_block(
            block_addr, AccessType.WRITEBACK, dirty=True,
            state=CoherenceState.MODIFIED)
        self.energy.charge("hierarchy", self._l3_wb_nj)
        if l3_eviction is not None:
            self._handle_llc_eviction(l3_eviction)

    def _handle_llc_eviction(self, eviction: EvictionInfo) -> None:
        self.shared.l3_eviction_to_memory(eviction, self.energy)
        self.predictor.on_eviction(eviction.block_addr, _L3,
                                   dirty=eviction.dirty)

    # ==================================================================
    # Prefetching
    # ==================================================================
    def _observe_record(self, address: int, pc: int, is_load: bool,
                        hit: bool) -> PrefetchAccess:
        """Fill the shared PrefetchAccess record for one observation."""
        record = self._pf_access
        record.address = address
        record.pc = pc
        record.hit = hit
        record.is_load = is_load
        return record

    def _train_l1_prefetcher(self, address: int, pc: int, is_load: bool,
                             hit: bool) -> None:
        candidates = self.l1_prefetcher.observe(
            self._observe_record(address, pc, is_load, hit))
        for candidate in candidates:
            self._issue_prefetch(candidate, _L1)

    def _train_l2_prefetcher(self, address: int, pc: int, is_load: bool,
                             hit: bool) -> None:
        candidates = self.l2_prefetcher.observe(
            self._observe_record(address, pc, is_load, hit))
        for candidate in candidates:
            self._issue_prefetch(candidate, _L2)

    def _train_llc_prefetcher(self, address: int, pc: int, is_load: bool,
                              hit: bool) -> None:
        # The L2 prefetcher trains on L1 misses (accesses that reach L2) and
        # the LLC prefetcher on L2 misses; an access that gets here missed L2.
        record = self._observe_record(address, pc, is_load, False)
        candidates = self.l2_prefetcher.observe(record)
        for candidate in candidates:
            self._issue_prefetch(candidate, _L2)
        record = self._observe_record(address, pc, is_load, hit)
        candidates = self.shared.llc_prefetcher.observe(record)
        for candidate in candidates:
            self._issue_prefetch(candidate, _L3)

    def _issue_prefetch(self, address: int, level: Level) -> None:
        """Install a prefetched block at ``level`` (and maintain inclusion).

        The gate below approximates the 25 %-MSHR-reservation throttle
        (Section IV.A): the functional model retires each access before the
        next begins, so true MSHR occupancy is not observable; instead the
        prefetch *issue rate* over the last ``prefetch_inflight_window``
        demand accesses (tracked by the inlined window bookkeeping in
        :meth:`access`) is bounded by the non-reserved share of the
        deepest private level's MSHR entries — the behaviour the
        reservation produces under load.

        A private-level prefetch fills every private intermediate
        deepest-first, so inclusion holds; an L1-targeted one also fills
        L1.  In a 2-level hierarchy both targets collapse to an L1 install
        (L1 is the only private level), recorded with the directory.
        """
        if (self._recent_prefetch_count + self._prefetches_this_access
                >= self._prefetch_budget):
            self.stats.prefetches_dropped_mshr += 1
            return
        mask = self._block_mask
        block = (address & mask) if mask is not None \
            else block_address(address, self._block_size)
        self.stats.prefetches_issued += 1
        self._prefetches_this_access += 1
        if level is _L3:
            installed, l3_eviction = self.shared.l3.prefetch_install(block)
            if not installed:
                return
            if l3_eviction is not None:
                self._handle_llc_eviction(l3_eviction)
            self.predictor.on_fill(block, _L3, from_prefetch=True)
            self.energy.charge("hierarchy", self._l3_nj)
            return
        private = self._private
        target_l1 = level is _L1 or not private
        if target_l1:
            if self.l1.contains_block(block):
                return
        elif private[0][1].contains_block(block):
            return
        for index, cache in self._fill_order:
            eviction = cache.fill_block(block, _PREFETCH)
            if eviction is not None:
                self._handle_private_eviction(eviction, index)
        if target_l1:
            l1_eviction = self.l1.fill_block(block, _PREFETCH)
            if l1_eviction is not None:
                self._handle_l1_eviction(l1_eviction)
        if private:
            self.predictor.on_fill(block, _L2, from_prefetch=True)
        self.shared.directory.record_private_fill(block, self.core_id)
        self.energy.charge("hierarchy",
                           self._l1_nj if target_l1 else private[0][2])

    # ==================================================================
    # Reporting
    # ==================================================================
    def miss_counts(self) -> Dict[str, int]:
        """Demand miss counts per level (the quantities behind Figures 1-2)."""
        return {
            "l1_misses": self.stats.l1_misses,
            "l2_misses": self.stats.l2_misses,
            "l3_misses": self.stats.l3_misses,
        }

    def reset_statistics(self) -> None:
        self.stats.reset()
        self.energy.reset()
        self.l1.reset_statistics()
        for cache in self._intermediates:
            cache.reset_statistics()
        self.predictor.reset_statistics()
        self.tlb.reset_statistics()
        self.interconnect.reset_statistics()
