"""Simulator run-loop, stats, and checkpoint/restore tests."""

import pickle

import pytest

from repro.campaign import CampaignRunner
from repro.compiler import compile_source
from repro.core import FaultInjector, parse_fault_file
from repro.memory import MemoryHierarchy
from repro.memory import hierarchy as hierarchy_module
from repro.memory.cache import Cache
from repro.sim import (
    CheckpointError,
    SimConfig,
    Simulator,
    dumps_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.sim import stats as sim_stats
from repro.sim.checkpoint import rung_state
from repro.workloads.spec import WorkloadSpec

from conftest import run_asm, run_minic

CHECKPOINTED = """
A = iarray(4)

def main():
    A[0] = 1111
    fi_read_init_all()
    fi_activate_inst(0)
    total = 0
    for i in range(50):
        total += i
    fi_activate_inst(0)
    print_int(total)
    print_int(A[0])
    exit(0)
"""


class TestRunLoop:
    def test_completed_status(self):
        sim, result = run_minic("def main():\n    exit(0)\n")
        assert result.status == "completed"

    def test_limit_status(self):
        sim, result = run_minic(
            "def main():\n    while 1:\n        pass\n    exit(0)\n",
            max_instructions=2000)
        assert result.status == "limit"

    def test_halt_status(self):
        sim, result = run_asm("main: halt\n")
        assert result.status == "halted"

    def test_instructions_and_ticks_accumulate(self):
        sim, result = run_minic("def main():\n    exit(0)\n")
        assert result.instructions > 0
        assert result.ticks >= result.instructions

    def test_stats_dump_is_sorted_text(self):
        sim, _ = run_minic("def main():\n    exit(0)\n")
        dump = sim.stats_dump()
        lines = dump.strip().splitlines()
        assert lines == sorted(lines)
        assert any(line.startswith("sim.instructions") for line in lines)

    def test_stats_collect_includes_caches(self):
        sim, _ = run_minic("def main():\n    exit(0)\n", model="timing")
        collected = sim_stats.collect(sim)
        assert collected["system.cpu0.l1d.misses"] >= 0
        assert collected["system.cpu0.committed"] > 0


class TestCheckpointing:
    def _checkpointed_sim(self):
        injector = FaultInjector()
        sim = Simulator(SimConfig(), injector=injector)
        sim.load(compile_source(CHECKPOINTED), "app")
        holder = {}
        sim.on_checkpoint = lambda s: holder.__setitem__(
            "blob", dumps_checkpoint(s))
        result = sim.run(until_checkpoint=True, max_instructions=500_000)
        assert "blob" in holder
        return sim, holder["blob"]

    def test_checkpoint_taken_at_fi_read_init(self):
        sim, blob = self._checkpointed_sim()
        assert sim.checkpoint_taken
        # Continue the original: output is complete.
        result = sim.run(max_instructions=500_000)
        assert result.status == "completed"
        assert sim.console_text() == "12251111"

    def test_restore_resumes_exactly(self):
        sim, blob = self._checkpointed_sim()
        sim.run(max_instructions=500_000)
        restored = restore_checkpoint(blob)
        result = restored.run(max_instructions=500_000)
        assert result.status == "completed"
        assert restored.console_text() == sim.console_text()
        assert restored.process(0).exit_code == 0

    def test_restore_preserves_pre_checkpoint_memory(self):
        _, blob = self._checkpointed_sim()
        restored = restore_checkpoint(blob)
        restored.run(max_instructions=500_000)
        assert restored.console_text().endswith("1111")

    def test_restore_with_fault_config_injects(self):
        _, blob = self._checkpointed_sim()
        faults = parse_fault_file(
            "ExecutionStageInjectedFault Inst:10 All1 Threadid:0 "
            "system.cpu0 occ:1\n")
        restored = restore_checkpoint(blob, faults=faults)
        restored.run(max_instructions=500_000)
        assert restored.injector.records
        # The same checkpoint restores cleanly a second time with a
        # different fault list (fi_read_init_all semantics).
        other = restore_checkpoint(blob, faults=[])
        other.run(max_instructions=500_000)
        assert not other.injector.records
        assert other.console_text() == "12251111"

    def test_restore_into_different_cpu_model(self):
        _, blob = self._checkpointed_sim()
        restored = restore_checkpoint(
            blob, config_override=SimConfig(cpu_model="o3"))
        assert restored.cpu.model_name == "o3"
        restored.run(max_instructions=500_000)
        assert restored.console_text() == "12251111"

    def test_save_and_load_via_file(self, tmp_path):
        sim, _ = self._checkpointed_sim()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(sim, path)
        restored = restore_checkpoint(path)
        restored.run(max_instructions=500_000)
        assert restored.console_text() == "12251111"

    def test_version_mismatch_rejected(self, tmp_path):
        import pickle
        path = tmp_path / "bad.bin"
        with open(path, "wb") as handle:
            pickle.dump({"version": -1}, handle)
        with pytest.raises(CheckpointError):
            restore_checkpoint(path)

    def test_checkpoint_restore_determinism(self):
        """Two restores of the same checkpoint produce identical stats
        dumps — the foundation of campaign reproducibility."""
        _, blob = self._checkpointed_sim()
        dumps = []
        for _ in range(2):
            restored = restore_checkpoint(blob)
            restored.run(max_instructions=500_000)
            dumps.append(restored.stats_dump())
        assert dumps[0] == dumps[1]


class TestModelSwitchAfterFI:
    def test_switch_to_atomic_after_fault_commits(self):
        faults = parse_fault_file(
            "ExecutionStageInjectedFault Inst:10 Flip:0 Threadid:0 "
            "system.cpu0 occ:1\n")
        injector = FaultInjector(faults)
        config = SimConfig(cpu_model="o3", switch_to_atomic_after_fi=True)
        sim = Simulator(config, injector=injector)
        sim.load(compile_source(CHECKPOINTED), "app")
        result = sim.run(max_instructions=500_000)
        assert result.status == "completed"
        assert injector.records
        assert sim.cpu.model_name == "atomic"

    def test_no_switch_while_faults_pending(self):
        faults = parse_fault_file(
            "ExecutionStageInjectedFault Inst:999999999 Flip:0 "
            "Threadid:0 system.cpu0 occ:1\n")
        injector = FaultInjector(faults)
        config = SimConfig(cpu_model="o3", switch_to_atomic_after_fi=True)
        sim = Simulator(config, injector=injector)
        sim.load(compile_source(CHECKPOINTED), "app")
        sim.run(max_instructions=500_000)
        assert sim.cpu.model_name == "o3"


class TestModelAwareRestore:
    """A restore hands the stored cache hierarchy over untouched; the
    caches are built, and take it, only when something reads them."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every Cache the hierarchy constructs from now on."""
        caches = []

        class CountedCache(Cache):
            def __init__(self, *args, **kwargs):
                caches.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(hierarchy_module, "Cache", CountedCache)
        return caches

    @staticmethod
    def _eager(source, **kwargs) -> Simulator:
        """A restore that builds and fills the caches at once."""
        sim = restore_checkpoint(source, **kwargs)
        assert sim.hierarchy.l2 is not None
        return sim

    def test_atomic_experiments_build_no_cache(self, built):
        runner = CampaignRunner(WorkloadSpec(
            name="ckpt", source=CHECKPOINTED,
            output_arrays=[("A", 4, "int")]))
        window = runner.golden.profile.committed
        late, early = parse_fault_file(
            f"RegisterInjectedFault Inst:{window - 5} Flip:3 Threadid:0 "
            f"system.cpu0 occ:1 int 9\n"
            f"RegisterInjectedFault Inst:1 Flip:3 Threadid:0 "
            f"system.cpu0 occ:1 int 9\n")
        built.clear()
        assert runner.run_experiment(late).replay_start > 0
        assert runner.run_experiment(early).replay_start == 0
        assert built == []
        # The same restores, run to the end: the stats dump (which
        # reads the caches) equals an eager restore's byte for byte.
        rung = runner._start_rung([late]).state
        for source in (runner.golden.checkpoint, rung):
            lazy = restore_checkpoint(source, faults=[late])
            lazy.run(max_instructions=500_000)
            assert built == []
            eager = self._eager(source, faults=[late])
            eager.run(max_instructions=500_000)
            assert lazy.stats_dump() == eager.stats_dump()
            assert lazy.hierarchy.snapshot() == eager.hierarchy.snapshot()
            built.clear()

    @pytest.mark.parametrize("model", ["timing", "o3"])
    def test_cache_models_see_the_restored_caches(self, model):
        sim = Simulator(SimConfig(cpu_model="timing"),
                        injector=FaultInjector())
        sim.load(compile_source(CHECKPOINTED), "app")
        holder = {}
        sim.on_checkpoint = lambda s: holder.__setitem__(
            "blob", dumps_checkpoint(s))
        sim.run(until_checkpoint=True, max_instructions=500_000)
        sim.on_checkpoint = None
        sim.run(max_instructions=sim.instructions + 200)
        rung = rung_state(sim)
        stored = pickle.loads(rung["hierarchy"])
        assert any(stored["l1d"]["sets"])       # warm caches
        for source in (holder["blob"], rung):
            config = SimConfig(cpu_model=model)
            eager = self._eager(source, config_override=config)
            if source is rung:
                assert eager.hierarchy.snapshot() == stored
            eager.run(max_instructions=500_000)
            lazy = restore_checkpoint(source, config_override=config)
            lazy.run(max_instructions=500_000)
            # Built by the model's first access into a plain hierarchy,
            # whose class has no __getattr__ hook on every access.
            assert type(lazy.hierarchy) is MemoryHierarchy
            assert not hasattr(MemoryHierarchy, "__getattr__")
            assert lazy.hierarchy.snapshot() == eager.hierarchy.snapshot()
            assert lazy.stats_dump() == eager.stats_dump()
