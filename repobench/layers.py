"""Per-layer self-time accounting from outside the program.

The traced run wraps the public functions of each layer of ``repro`` (the
table :data:`LAYERS`) before any system is built.  Each wrapper opens a span:
its host time minus the time of the spans it encloses is the layer's *self
time*.  A call into a layer from inside the same layer (``lookup`` calling
``access_block``, a predictor's ``super().predict``) is not a new span, so
call counts are calls *into* the layer.

Spans are not stored one by one -- a traced simulation makes tens of
millions -- but folded into per-function self-time and call counters, one
set per thread, merged on :meth:`Tracer.totals`.  The program is not
modified: wrappers are installed on the classes and modules at run time.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer name -> the ``module:Qualified.name`` functions it owns.  A method
#: named on a base class also covers every subclass that overrides it; a
#: name ending in ``*`` covers every method with that prefix.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("workloads", ("repro.workloads.base:Workload.generate_buffer",)),
    ("sim.system", ("repro.sim.system:SimulatedSystem.__init__",
                    "repro.sim.multicore:MultiCoreSystem.__init__")),
    ("sim.kernels", ("repro.sim.kernels:Kernel.run",)),
    ("memory.hierarchy.hit",
     ("repro.memory.hierarchy:CoreMemoryHierarchy.bulk_repeat_hits",)),
    # access_decomposed is split between .hit and .miss by the level that
    # served the access (see Tracer._wrap_access).
    ("memory.hierarchy.miss", ()),
    ("memory.cache", ("repro.memory.cache:Cache.access_block",
                      "repro.memory.cache:Cache.fill_block",
                      "repro.memory.cache:Cache.prefetch_install",
                      "repro.memory.cache:Cache.lookup")),
    ("memory.mshr", ("repro.memory.mshr:MSHRFile.allocate",
                     "repro.memory.mshr:MSHRFile.release")),
    ("memory.dram", ("repro.memory.dram:DRAMModel.access",)),
    ("memory.tlb", ("repro.memory.tlb:TLBHierarchy.translate_latency_page",)),
    ("prefetch", ("repro.prefetch.base:Prefetcher.observe",)),
    ("core", ("repro.core.base:LevelPredictor.predict",
              "repro.core.base:LevelPredictor.train",
              "repro.core.base:LevelPredictor.on_fill",
              "repro.core.base:LevelPredictor.on_eviction")),
    ("cpu", ("repro.cpu.ooo_core:OutOfOrderCore.execute",)),
    ("energy", ("repro.energy.model:EnergyAccount.charge*",)),
    ("sim.multicore", ("repro.sim.multicore:MultiCoreSystem.run_traces",)),
    ("sim.engine", ("repro.sim.engine:SimulationEngine.run",)),
    ("sim.store.key", ("repro.sim.store:job_key",
                       "repro.sim.store:job_spec",
                       "repro.sim.store:spec_key")),
    ("sim.store.get", ("repro.sim.store:ResultStore.get",)),
    ("sim.store.put", ("repro.sim.store:ResultStore.put",
                       "repro.sim.store:ResultStore.flush_index")),
    ("experiments", ("repro.experiments:Experiment.jobs",
                     "repro.experiments:Experiment.summarize")),
    ("service", ("repro.service:ServiceClient.request",
                 "repro.service:SimulationService.dispatch")),
    ("service.fleet", ("repro.service:FleetClient.submit",)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)

#: Function labels whose call counts the cross-checks read.
ACCESS_HIT = "CoreMemoryHierarchy.access_decomposed@L1"
ACCESS_MISS = "CoreMemoryHierarchy.access_decomposed@below-L1"
DRAM_ACCESS = "DRAMModel.access"
BULK_HITS = "bulk_repeat_hits.applied"


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls")

    def __init__(self, slots: int) -> None:
        # Frames are [layer index, time covered by child spans]; the root
        # frame collects top-level spans and belongs to no layer.
        self.stack: List[list] = [[-1, 0.0]]
        self.self_s = [0.0] * slots
        self.calls = [0] * slots


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def import_all_modules() -> None:
    """Import every ``repro`` module, so every subclass is visible."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


class Tracer:
    """Installs the layer wrappers and accumulates their self time.

    Args:
        clock: The span clock.  The benchmark process uses wall time
            (``time.perf_counter``); fleet members use per-thread CPU time
            (``time.thread_time``), so a handler thread blocked waiting for
            a worker thread is not counted as busy.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        #: slot -> (layer name, function label)
        self.slots: List[Tuple[str, str]] = []
        self._states: List[_ThreadState] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed = False
        #: Systems built while tracing, for the counter cross-checks:
        #: [system, calls after construction, calls at reset_statistics].
        #: Once the next system is built, the finished one is replaced by
        #: its :func:`system_counters`, so at most two systems stay alive.
        self.systems: List[list] = []

    # ------------------------------------------------------------------
    def _slot(self, layer: str, label: str) -> int:
        self.slots.append((layer, label))
        return len(self.slots) - 1

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(len(self.slots))
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _wrap(self, layer: int, slot: int, fn: Callable) -> Callable:
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                state.self_s[slot] += elapsed - frame[1]
                state.calls[slot] += 1
                stack[-1][1] += elapsed
        return traced

    def _wrap_access(self, hit_layer: int, hit_slot: int, miss_slot: int,
                     fn: Callable) -> Callable:
        """access_decomposed: one span, filed by the level that served it."""
        tracer = self
        clock = self.clock
        from repro.memory.block import Level
        l1 = Level.L1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            frame = [hit_layer, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                slot = hit_slot if result is not None \
                    and result.hit_level is l1 else miss_slot
                state.self_s[slot] += elapsed - frame[1]
                state.calls[slot] += 1
                stack[-1][1] += elapsed
        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every function of :data:`LAYERS` (once per process)."""
        if self._installed:
            return
        self._installed = True
        import_all_modules()
        layer_index = {name: index for index, name in enumerate(LAYER_NAMES)}
        for layer, targets in LAYERS:
            for target in targets:
                self._install_target(layer_index[layer], layer, target)
        from repro.memory.hierarchy import CoreMemoryHierarchy
        hit = layer_index["memory.hierarchy.hit"]
        miss = layer_index["memory.hierarchy.miss"]
        CoreMemoryHierarchy.access_decomposed = self._wrap_access(
            hit, self._slot("memory.hierarchy.hit", ACCESS_HIT),
            self._slot("memory.hierarchy.miss", ACCESS_MISS),
            CoreMemoryHierarchy.access_decomposed)
        self._install_counters()

    def _install_target(self, layer: int, name: str, target: str) -> None:
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        if "." not in qualname:
            original = getattr(module, qualname)
            wrapped = self._wrap(layer, self._slot(name, qualname), original)
            # Rebind every module that imported the function by name.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") \
                        and getattr(other, qualname, None) is original:
                    setattr(other, qualname, wrapped)
            return
        class_name, attr = qualname.split(".")
        base = getattr(module, class_name)
        prefix = attr[:-1] if attr.endswith("*") else None
        for cls in [base] + _subclasses(base):
            for member, value in list(vars(cls).items()):
                matches = member.startswith(prefix) if prefix is not None \
                    else member == attr
                if matches and callable(value):
                    label = f"{class_name}.{member}" if cls is base \
                        else f"{cls.__name__}.{member}"
                    setattr(cls, member,
                            self._wrap(layer, self._slot(name, label), value))

    def _install_counters(self) -> None:
        """Hooks that are not spans: bulk hits applied, built systems."""
        from repro.memory.hierarchy import CoreMemoryHierarchy
        from repro.sim.multicore import MultiCoreSystem
        from repro.sim.system import SimulatedSystem
        tracer = self
        bulk_slot = self._slot("", BULK_HITS)
        bulk = CoreMemoryHierarchy.bulk_repeat_hits

        @functools.wraps(bulk)
        def counted_bulk(self, block, page, count, store_count):
            applied = bulk(self, block, page, count, store_count)
            if applied:
                tracer._state().calls[bulk_slot] += count
            return applied
        CoreMemoryHierarchy.bulk_repeat_hits = counted_bulk

        for cls in (SimulatedSystem, MultiCoreSystem):
            init = cls.__init__

            def recorded_init(self, *args, __init=init, **kwargs):
                __init(self, *args, **kwargs)
                tracer.close_systems()
                tracer.systems.append([self, tracer.snapshot(), None])
            functools.update_wrapper(recorded_init, init)
            cls.__init__ = recorded_init

        reset = SimulatedSystem.reset_statistics

        @functools.wraps(reset)
        def recorded_reset(self):
            reset(self)
            for entry in reversed(tracer.systems):
                if entry[0] is self:
                    entry[2] = tracer.snapshot()
                    break
        SimulatedSystem.reset_statistics = recorded_reset

    def close_systems(self) -> None:
        """Replace every recorded system by its final counters."""
        for entry in self.systems:
            if not isinstance(entry[0], dict):
                entry[0] = system_counters(entry[0])

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Call counts so far, by function label (all threads)."""
        counts: Dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for slot, calls in enumerate(state.calls):
                label = self.slots[slot][1]
                counts[label] = counts.get(label, 0) + calls
        return counts

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s": ..., "calls": ...}}`` over all threads."""
        out = {name: {"self_s": 0.0, "calls": 0} for name in LAYER_NAMES}
        with self._lock:
            states = list(self._states)
        for state in states:
            for slot, (layer, _label) in enumerate(self.slots):
                if layer:
                    out[layer]["self_s"] += state.self_s[slot]
                    out[layer]["calls"] += state.calls[slot]
        return out


def system_counters(system) -> Dict[str, Any]:
    """The program's own counters of one finished simulated system."""
    cores = getattr(system, "cores", None) or [system.hierarchy]
    prefetchers = [system.shared.llc_prefetcher]
    for core in cores:
        prefetchers += [core.l1_prefetcher, core.l2_prefetcher]
    return {
        "dram": system.shared.dram.stats.accesses,
        "cores": len(cores),
        "multicore": hasattr(system, "cores"),
        "pf_issued": sum(p.stats.issued for p in prefetchers),
        "pf_useful": sum(p.stats.useful for p in prefetchers),
    }


def subtract(after: Dict[str, Dict[str, float]],
             before: Optional[Dict[str, Dict[str, float]]]
             ) -> Dict[str, Dict[str, float]]:
    """Per-layer totals accrued between two :meth:`Tracer.totals` calls."""
    if before is None:
        return after
    return {name: {key: after[name][key] - before[name][key]
                   for key in after[name]} for name in after}
