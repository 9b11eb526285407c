"""Declarative hierarchy specs: validation, serialization, key stability
and N-level chain execution.

Three properties anchor this module:

1. Specs are validated at construction with contextual errors, and the
   JSON form is an exact fixed point (spec -> JSON -> spec -> JSON).
2. The content-addressed job keys of the paper systems are *pinned*
   against committed fixture strings (``tests/fixtures/job_keys.json``):
   the golden store must never move, whatever the config layer looks
   like internally.
   On random valid specs every single-field change moves the key, and
   a key never depends on which equal spec was hashed first.
3. Every chain depth runs one miss walker: on random valid specs of 2-4
   levels the scalar kernel, the batch kernel and record-level
   ``access()`` produce byte-identical results.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.block import AccessType, MemoryAccess
from repro.memory.spec import (
    HierarchySpec,
    InterconnectSpec,
    LevelSpec,
    TLBSpec,
    derive_llc,
    load_hierarchy,
)
from repro.sim.config import SystemConfig, table1_description
from repro.sim.engine import MixJob, SimulationJob, apply_hierarchy
from repro.sim.store import job_spec, serialize_result, spec_key
from repro.sim.system import SimulatedSystem
from repro.trace import TraceBuffer
from repro.workloads import build_workload

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLES = Path(__file__).parent.parent / "examples" / "hierarchies"


def _paper_levels():
    return HierarchySpec.paper_single_core().levels


def _chain(depth: int) -> HierarchySpec:
    """A 2- or 4-level variant of the paper hierarchy."""
    paper = HierarchySpec.paper_single_core()
    l1, l2, llc = paper.levels
    if depth == 2:
        levels = (l1, dataclasses.replace(llc, name="L2"))
    else:
        mid = dataclasses.replace(l2, name="L3", size_bytes=512 * 1024,
                                  tag_latency=16)
        levels = (l1, l2, mid, dataclasses.replace(llc, name="L4"))
    return dataclasses.replace(paper, levels=levels)


# ======================================================================
# Validation
# ======================================================================
class TestValidation:
    def test_zero_ways_rejected(self):
        with pytest.raises(ValueError, match="associativity must be at "
                                             "least 1 way"):
            LevelSpec(name="L1", size_bytes=32 * 1024, associativity=0)

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ValueError, match="block_size must be a power "
                                             "of two"):
            LevelSpec(name="L1", size_bytes=32 * 1024, associativity=4,
                      block_size=48)

    def test_size_not_multiple_of_way_rejected(self):
        with pytest.raises(ValueError, match="multiple of block_size"):
            LevelSpec(name="L1", size_bytes=32 * 1024 + 64, associativity=4)

    def test_shrinking_capacity_rejected(self):
        l1, l2, llc = _paper_levels()
        small_llc = dataclasses.replace(llc, size_bytes=128 * 1024)
        with pytest.raises(ValueError, match="capacity must not shrink"):
            dataclasses.replace(HierarchySpec.paper_single_core(),
                                levels=(l1, l2, small_llc))

    def test_shrinking_latency_rejected(self):
        l1, l2, llc = _paper_levels()
        fast_llc = dataclasses.replace(llc, tag_latency=2, data_latency=3)
        with pytest.raises(ValueError, match="hit latency must not shrink"):
            dataclasses.replace(HierarchySpec.paper_single_core(),
                                levels=(l1, l2, fast_llc))

    def test_duplicate_level_names_rejected(self):
        l1, l2, llc = _paper_levels()
        dup = dataclasses.replace(l2, name="L1")
        with pytest.raises(ValueError, match="duplicate level name 'L1'"):
            dataclasses.replace(HierarchySpec.paper_single_core(),
                                levels=(l1, dup, llc))

    def test_single_level_rejected(self):
        l1 = _paper_levels()[0]
        with pytest.raises(ValueError, match="at least 2 cache levels"):
            dataclasses.replace(HierarchySpec.paper_single_core(),
                                levels=(l1,))

    def test_non_inclusive_intermediate_rejected(self):
        l1, l2, llc = _paper_levels()
        exclusive_l2 = dataclasses.replace(l2, inclusive=False)
        with pytest.raises(ValueError, match="only the LLC"):
            dataclasses.replace(HierarchySpec.paper_single_core(),
                                levels=(l1, exclusive_l2, llc))

    def test_mixed_block_sizes_rejected(self):
        l1, l2, llc = _paper_levels()
        odd = dataclasses.replace(l2, block_size=128)
        with pytest.raises(ValueError, match="one block size"):
            dataclasses.replace(HierarchySpec.paper_single_core(),
                                levels=(l1, odd, llc))

    def test_unknown_json_field_rejected(self):
        payload = json.loads(HierarchySpec.paper_single_core().to_json())
        payload["levels"][0]["banks"] = 4
        with pytest.raises(ValueError, match="unknown field"):
            HierarchySpec.from_json(json.dumps(payload))

    def test_bad_schema_tag_rejected(self):
        payload = json.loads(HierarchySpec.paper_single_core().to_json())
        payload["schema"] = "repro-hierarchy/999"
        with pytest.raises(ValueError, match="schema"):
            HierarchySpec.from_json(json.dumps(payload))


# ======================================================================
# Serialization
# ======================================================================
class TestRoundTrip:
    @pytest.mark.parametrize("spec", [
        HierarchySpec.paper_single_core(),
        HierarchySpec.paper_multi_core(),
        _chain(2),
        _chain(4),
    ], ids=["paper-single", "paper-multi", "two-level", "four-level"])
    def test_json_fixed_point(self, spec):
        text = spec.to_json()
        reparsed = HierarchySpec.from_json(text)
        assert reparsed == spec
        assert reparsed.to_json() == text

    @pytest.mark.parametrize("name", ["paper", "two_level", "four_level"])
    def test_committed_examples_are_fixed_points(self, name):
        path = EXAMPLES / f"{name}.json"
        text = path.read_text(encoding="utf-8")
        spec = load_hierarchy(path)
        assert spec.to_json() == text

    def test_derive_llc_replaces_fields(self):
        spec = HierarchySpec.paper_single_core()
        derived = derive_llc(spec, tag_latency=20, data_latency=20)
        assert derived.llc.tag_latency == 20
        assert derived.llc.data_latency == 20
        # Everything unnamed carries over.
        assert derived.llc.size_bytes == spec.llc.size_bytes
        assert derived.llc.mshr_entries == spec.llc.mshr_entries


# ======================================================================
# Key stability (the golden store must never move)
# ======================================================================
class TestKeyStability:
    @pytest.fixture(scope="class")
    def fixture_data(self):
        with open(FIXTURES / "job_keys.json", encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("predictor", ["baseline", "tage-2kb",
                                           "tage-8kb", "d2d", "lp", "ideal"])
    def test_paper_single_core_keys_pinned(self, fixture_data, predictor):
        job = SimulationJob(workload="gapbs.pr", predictor=predictor,
                            num_accesses=400, warmup_accesses=120, seed=0)
        spec = job_spec(job)
        pinned = fixture_data[f"single/{predictor}"]
        assert json.dumps(spec, sort_keys=True) == pinned["canonical"]
        assert spec_key(spec) == pinned["key"]

    def test_fig15_variant_key_pinned(self, fixture_data):
        config = SystemConfig.sensitivity_variants("lp")["parallel-llc"]
        job = SimulationJob(workload="stream", predictor="lp",
                            num_accesses=400, warmup_accesses=120, seed=0,
                            config=config)
        spec = job_spec(job)
        pinned = fixture_data["fig15/parallel-llc"]
        assert json.dumps(spec, sort_keys=True) == pinned["canonical"]
        assert spec_key(spec) == pinned["key"]

    def test_mix_key_pinned(self, fixture_data):
        job = MixJob(mix="mix1", predictor="lp", accesses_per_core=240,
                     seed=0, config=SystemConfig.paper_multi_core())
        spec = job_spec(job)
        pinned = fixture_data["mix/mix1-lp"]
        assert json.dumps(spec, sort_keys=True) == pinned["canonical"]
        assert spec_key(spec) == pinned["key"]

    def test_loaded_paper_spec_emits_pinned_key(self, fixture_data):
        """A paper spec that is not the shared constant (parsed from the
        committed example file) still emits the pinned Table I form."""
        loaded = load_hierarchy(EXAMPLES / "paper.json")
        assert loaded == HierarchySpec.paper_single_core()
        assert loaded is not HierarchySpec.paper_single_core()
        config = dataclasses.replace(SystemConfig.paper_single_core(),
                                     hierarchy=loaded)
        job = SimulationJob(workload="gapbs.pr", predictor="lp",
                            num_accesses=400, warmup_accesses=120, seed=0,
                            config=config)
        spec = job_spec(job)
        pinned = fixture_data["single/lp"]
        assert json.dumps(spec, sort_keys=True) == pinned["canonical"]
        assert spec_key(spec) == pinned["key"]

    def test_customized_spec_gets_distinct_key(self):
        base = SimulationJob(workload="gapbs.pr", predictor="lp",
                             num_accesses=400, warmup_accesses=120, seed=0,
                             config=SystemConfig.paper_single_core())
        custom = apply_hierarchy([base], _chain(2), "two-level")[0]
        assert spec_key(job_spec(custom)) != spec_key(job_spec(base))


# ======================================================================
# N-level execution
# ======================================================================
def _run(spec, kernel: str, accesses: int = 600):
    config = SystemConfig(name="chain-test", hierarchy=spec,
                          predictor="lp")
    system = SimulatedSystem(config)
    workload = build_workload("gapbs.pr")
    buffer = workload.generate_buffer(accesses, seed=0)
    return system.run_trace(buffer, kernel=kernel)


@st.composite
def hierarchy_specs(draw, depths=st.integers(2, 4)):
    """Random valid specs: 2-4 levels whose capacity and hit latency grow
    down the chain, with small caches and TLBs so that evictions,
    recoveries and writebacks happen within a short trace."""
    depth = draw(depths)
    geometries = [(draw(st.sampled_from((1, 2, 4, 8, 16))),
                   draw(st.integers(1, 64))) for _ in range(depth)]
    geometries.sort(key=lambda geometry: geometry[0] * geometry[1])
    tags = sorted(draw(st.lists(st.integers(1, 24), min_size=depth,
                                max_size=depth)))
    levels = []
    for index, ((ways, sets), tag) in enumerate(zip(geometries, tags)):
        llc = index == depth - 1
        sequential = llc and draw(st.booleans())
        levels.append(LevelSpec(
            name=f"L{index + 1}", size_bytes=64 * ways * sets,
            associativity=ways, tag_latency=tag,
            data_latency=draw(st.integers(0, 40)) if sequential else 0,
            sequential_tag_data=sequential,
            mshr_entries=draw(st.integers(2, 64)),
            inclusive=not llc or draw(st.booleans())))
    return HierarchySpec(
        levels=tuple(levels),
        tlb=TLBSpec(l1_entries=draw(st.sampled_from((4, 16, 64))),
                    l2_entries=draw(st.sampled_from((16, 256, 1536)))),
        interconnect=InterconnectSpec(
            l1_to_l2=draw(st.integers(0, 4)),
            l2_to_llc=draw(st.integers(0, 8)),
            llc_to_memory=draw(st.integers(0, 8)),
            recovery_transaction=draw(st.integers(0, 12))),
        memory_speculative_launch=draw(st.booleans()),
        parallel_port_penalty=float(draw(st.integers(0, 3))),
        prefetch_inflight_window=draw(st.integers(1, 48)))


@st.composite
def block_run_traces(draw):
    """Seeded random traces of same-block runs over a block footprint.

    Suite workloads rarely touch one line twice in a row, so these runs
    are what drive the batch kernel's bulk path; the footprint spans a
    few blocks (all hits) up to 2 MB (LLC and DRAM traffic).
    """
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    footprint = draw(st.sampled_from((1, 8, 64, 512, 4096, 32768)))
    max_run = draw(st.integers(1, 12))
    store_percent = draw(st.integers(0, 50))
    length = draw(st.integers(50, 500))
    records = []
    while len(records) < length:
        block = 0x100000 + 64 * rng.randrange(footprint)
        for _ in range(rng.randint(1, max_run)):
            store = rng.randrange(100) < store_percent
            records.append(MemoryAccess(
                address=block + rng.randrange(64),
                access_type=AccessType.STORE if store else AccessType.LOAD,
                pc=0x400000 + 4 * rng.randrange(16),
                depends_on_previous=rng.random() < 0.2,
                non_memory_instructions=rng.randrange(4)))
    return TraceBuffer.from_accesses(records[:length])


def suite_traces():
    """Seeded traces of the registered workloads."""
    return st.builds(
        lambda app, accesses, seed:
            build_workload(app).generate_buffer(accesses, seed=seed),
        st.sampled_from(("gapbs.pr", "gapbs.bfs", "605.mcf", "stream",
                         "gups", "602.gcc")),
        st.integers(50, 500), st.integers(0, 1 << 16))


class TestOneWalker:
    """Every depth runs one miss walker, so the three ways of driving it —
    scalar kernel, batch kernel and record-level ``access()`` — must
    agree byte for byte on any valid hierarchy."""

    @settings(max_examples=50, deadline=None)
    @given(spec=hierarchy_specs(),
           trace=st.one_of(block_run_traces(), suite_traces()),
           predictor=st.sampled_from(("baseline", "tage-2kb", "d2d",
                                      "lp", "ideal")),
           prefetch_scheme=st.sampled_from(("paper", "none")))
    def test_scalar_batch_and_records_byte_identical(
            self, spec, trace, predictor, prefetch_scheme):
        config = SystemConfig(name="walker-test", hierarchy=spec,
                              predictor=predictor,
                              prefetch_scheme=prefetch_scheme)
        outputs = [
            json.dumps(serialize_result(
                SimulatedSystem(config).run_trace(replayed, "trace",
                                                  kernel=kernel)),
                sort_keys=True)
            for replayed, kernel in ((trace, "scalar"), (trace, "batch"),
                                     (trace.to_accesses(), None))]
        scalar, batch, records = outputs
        assert batch == scalar
        assert records == scalar


# ======================================================================
# Key properties over generated specs
# ======================================================================
@st.composite
def keyed_specs(draw):
    """:func:`hierarchy_specs`, half of them rewritten into the paper's
    Table I shape (3 levels, a non-inclusive LLC, the default TLB) so
    the pinned canonical form is exercised as often as the generic one."""
    if draw(st.booleans()):
        return draw(hierarchy_specs())
    spec = draw(hierarchy_specs(depths=st.just(3)))
    llc = dataclasses.replace(spec.llc, inclusive=False)
    return dataclasses.replace(spec, tlb=TLBSpec(),
                               levels=spec.levels[:-1] + (llc,))


def _key(spec: HierarchySpec) -> str:
    job = SimulationJob(workload="gapbs.pr", predictor="lp",
                        num_accesses=400, warmup_accesses=120, seed=0,
                        config=SystemConfig(name="key-test",
                                            hierarchy=spec))
    return spec_key(job_spec(job))


def _fresh(spec: HierarchySpec) -> HierarchySpec:
    """An equal spec instance that has never been hashed."""
    return dataclasses.replace(spec)


def _other_values(value):
    """Candidate replacements for one field value (validity unchecked)."""
    if isinstance(value, bool):
        candidates = [not value]
    elif value is None:
        candidates = [1.0]
    elif isinstance(value, str):
        candidates = [value + "x"]
    elif isinstance(value, int):
        candidates = [value * 2, value + 1, value // 2, value - 1]
    else:
        candidates = [value * 2 + 0.5, value / 2]
    return [candidate for candidate in candidates if candidate != value]


def _single_field_variants(spec: HierarchySpec):
    """``(path, spec)`` for every field that has a valid replacement
    value, each variant differing from ``spec`` in that field alone."""
    def first_valid(build, value):
        for candidate in _other_values(value):
            try:
                return build(candidate)
            except ValueError:
                continue
        return None

    variants = []
    for top in dataclasses.fields(HierarchySpec):
        value = getattr(spec, top.name)
        if top.name == "levels":
            for index, level in enumerate(value):
                for inner in dataclasses.fields(LevelSpec):
                    def build(candidate, index=index, name=inner.name):
                        levels = list(spec.levels)
                        levels[index] = dataclasses.replace(
                            levels[index], **{name: candidate})
                        return dataclasses.replace(spec,
                                                   levels=tuple(levels))
                    variant = first_valid(build,
                                          getattr(level, inner.name))
                    if variant is not None:
                        variants.append(
                            (f"levels[{index}].{inner.name}", variant))
        elif dataclasses.is_dataclass(value):
            for inner in dataclasses.fields(value):
                def build(candidate, section=top.name, name=inner.name):
                    return dataclasses.replace(spec, **{
                        section: dataclasses.replace(
                            getattr(spec, section), **{name: candidate})})
                variant = first_valid(build, getattr(value, inner.name))
                if variant is not None:
                    variants.append((f"{top.name}.{inner.name}", variant))
        else:
            def build(candidate, name=top.name):
                return dataclasses.replace(spec, **{name: candidate})
            variant = first_valid(build, value)
            if variant is not None:
                variants.append((top.name, variant))
    return variants


#: Integer-valued fields that every canonical form carries, so writing
#: them as a float must change the key.
_NUMERIC_PATHS = (("llc", "tag_latency"), ("l1", "tag_latency"),
                  ("llc", "mshr_entries"), ("memory", "cas_latency"),
                  ("interconnect", "l2_to_llc"),
                  (None, "prefetch_inflight_window"))


def _as_float(spec: HierarchySpec, path) -> HierarchySpec:
    """``spec`` with one integer field rewritten as the equal float."""
    section, name = path
    if section is None:
        return dataclasses.replace(
            spec, **{name: float(getattr(spec, name))})
    if section in ("l1", "llc"):
        index = 0 if section == "l1" else spec.depth - 1
        levels = list(spec.levels)
        levels[index] = dataclasses.replace(
            levels[index], **{name: float(getattr(levels[index], name))})
        return dataclasses.replace(spec, levels=tuple(levels))
    part = getattr(spec, section)
    return dataclasses.replace(spec, **{section: dataclasses.replace(
        part, **{name: float(getattr(part, name))})})


class TestKeyProperties:
    """The Table I projection loses no field, and a spec's key is a
    function of that spec alone — not of what the process hashed
    before it."""

    @settings(max_examples=40, deadline=None)
    @given(spec=keyed_specs())
    def test_every_single_field_change_moves_the_key(self, spec):
        base = _key(spec)
        variants = _single_field_variants(spec)
        for path, variant in variants:
            assert _key(variant) != base, path
        # Every field outside the levels, and every LLC field but the
        # geometry (block size is chain-wide; the ways must divide the
        # capacity), has a valid replacement to test.
        changed = {path for path, _ in variants}
        llc = f"levels[{spec.depth - 1}]"
        expected = {f"{llc}.{f.name}" for f in dataclasses.fields(LevelSpec)
                    if f.name not in ("block_size", "associativity")}
        for top in dataclasses.fields(HierarchySpec):
            section = getattr(spec, top.name)
            if top.name == "levels":
                continue
            if dataclasses.is_dataclass(section):
                expected |= {f"{top.name}.{f.name}"
                             for f in dataclasses.fields(section)}
            else:
                expected.add(top.name)
        assert expected <= changed

    @settings(max_examples=40, deadline=None)
    @given(spec=keyed_specs(), path=st.sampled_from(_NUMERIC_PATHS),
           float_first=st.booleans())
    def test_equal_specs_key_independently_of_hash_order(
            self, spec, path, float_first):
        as_int = spec
        as_float = _as_float(spec, path)
        assert as_float == as_int and hash(as_float) == hash(as_int)
        alone_int = _key(_fresh(as_int))
        alone_float = _key(_fresh(as_float))
        assert alone_int != alone_float
        pair = [_fresh(as_int), _fresh(as_float)]
        order = (1, 0) if float_first else (0, 1)
        keys = {index: _key(pair[index]) for index in order}
        assert keys[0] == alone_int
        assert keys[1] == alone_float


class TestChainExecution:
    @pytest.mark.parametrize("depth", [2, 4])
    def test_scalar_batch_bit_identical(self, depth):
        spec = _chain(depth)
        scalar = _run(spec, "scalar")
        batch = _run(spec, "batch")
        assert scalar.hierarchy_stats == batch.hierarchy_stats
        assert scalar.energy_breakdown == batch.energy_breakdown
        assert scalar.ipc == batch.ipc
        assert scalar.predictor_stats == batch.predictor_stats

    @pytest.mark.parametrize("depth,predictor", [(2, "baseline"),
                                                 (2, "ideal"),
                                                 (4, "baseline"),
                                                 (4, "ideal")])
    def test_chain_depths_run_all_predictors(self, depth, predictor):
        config = SystemConfig(name="chain-test", hierarchy=_chain(depth),
                              predictor=predictor)
        system = SimulatedSystem(config)
        workload = build_workload("gups")
        result = system.run_trace(workload.generate_buffer(400, seed=0))
        assert result.execution.instructions > 0
        assert result.hierarchy_stats.demand_accesses == 400


# ======================================================================
# Derived description (Table I)
# ======================================================================
class TestDescription:
    def test_four_level_table_renders_generically(self):
        config = dataclasses.replace(SystemConfig.paper_single_core(),
                                     hierarchy=_chain(4))
        table = table1_description(config)
        assert "L4 Cache" in table
        assert "8 MB" in table["L4 Cache"] or "2 MB" in table["L4 Cache"]
        assert "L1/L2/L3 inclusive" in table["Coherency"]
        assert "L4 non-inclusive" in table["Coherency"]

    def test_memory_line_derived_from_dram_config(self):
        table = table1_description()
        assert table["Main Memory"].startswith("16 GB DDR4-2400")
