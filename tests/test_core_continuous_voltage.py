"""Continuous-frequency scheduler and voltage selection."""

import pytest

from repro.core.continuous import ContinuousFrequencyScheduler
from repro.core.scheduler import FrequencyVoltageScheduler, ProcessorView
from repro.core.voltage import VoltageSelector, default_vf_curve
from repro.model.ipc import WorkloadSignature
from repro.power.table import POWER4_TABLE
from repro.power.vf_curve import LinearVFCurve
from repro.units import ghz, mhz


def sig(ratio: float) -> WorkloadSignature:
    return WorkloadSignature(core_cpi=0.65,
                             mem_time_per_instr_s=0.65 / ratio / ghz(1.0))


def views(*ratios):
    return [ProcessorView(node_id=0, proc_id=i, signature=sig(r))
            for i, r in enumerate(ratios)]


class TestContinuousScheduler:
    def test_agrees_with_discrete_within_one_rung(self):
        discrete = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        continuous = ContinuousFrequencyScheduler(POWER4_TABLE, epsilon=0.04)
        for ratio in (5.0, 1.0, 0.3, 0.12, 0.075, 0.05):
            f_d, _ = discrete.epsilon_constrained(sig(ratio))
            f_c, _ = continuous.epsilon_constrained(sig(ratio))
            steps = abs(POWER4_TABLE.index_of(f_d)
                        - POWER4_TABLE.index_of(f_c))
            assert steps <= 1, f"ratio {ratio}: {f_d} vs {f_c}"

    def test_quantize_up_never_exceeds_epsilon(self):
        continuous = ContinuousFrequencyScheduler(POWER4_TABLE, epsilon=0.04,
                                                  quantize="up")
        for ratio in (1.0, 0.3, 0.12, 0.075):
            f, loss = continuous.epsilon_constrained(sig(ratio))
            assert loss < 0.04 + 1e-9

    def test_ideal_vector_is_continuous(self):
        continuous = ContinuousFrequencyScheduler(POWER4_TABLE, epsilon=0.04)
        ideal = continuous.ideal_frequency_vector(views(0.075, 0.12))
        assert all(POWER4_TABLE.f_min_hz <= f <= POWER4_TABLE.f_max_hz
                   for f in ideal)
        # Raw ideals generally fall between rungs.
        assert any(f not in POWER4_TABLE for f in ideal)

    def test_idle_and_unknown_views(self):
        continuous = ContinuousFrequencyScheduler(POWER4_TABLE, epsilon=0.04)
        vs = [
            ProcessorView(node_id=0, proc_id=0, signature=None),
            ProcessorView(node_id=0, proc_id=1, signature=sig(1.0),
                          idle_signaled=True),
        ]
        ideal = continuous.ideal_frequency_vector(vs)
        assert ideal[0] == POWER4_TABLE.f_max_hz
        assert ideal[1] == POWER4_TABLE.f_min_hz
        schedule = continuous.schedule(vs)
        assert schedule.frequency_vector_hz()[1] == mhz(250)

    def test_power_pass_shared_with_discrete(self):
        continuous = ContinuousFrequencyScheduler(POWER4_TABLE, epsilon=0.04)
        schedule = continuous.schedule(views(10.0, 10.0),
                                       power_limit_w=200.0)
        assert schedule.total_power_w <= 200.0

    def test_bad_quantize_mode(self):
        with pytest.raises(ValueError):
            ContinuousFrequencyScheduler(POWER4_TABLE, quantize="down")


class TestVoltageSelector:
    def test_default_curve_cached_and_plausible(self):
        curve = default_vf_curve()
        assert curve is default_vf_curve()
        assert curve.min_voltage(ghz(1.0)) == pytest.approx(1.3, abs=0.01)
        assert curve.min_voltage(mhz(250)) < curve.min_voltage(ghz(1.0))

    def test_per_processor_override(self):
        selector = VoltageSelector()
        weak_part = LinearVFCurve(f_min_hz=mhz(250), v_min=0.9,
                                  f_max_hz=ghz(1.0), v_max=1.4)
        selector.set_processor_curve(0, 2, weak_part)
        normal = selector.min_voltage(0, 0, ghz(1.0))
        weak = selector.min_voltage(0, 2, ghz(1.0))
        assert weak == pytest.approx(1.4)
        assert normal == pytest.approx(1.3, abs=0.01)

    def test_override_scoped_to_processor(self):
        selector = VoltageSelector()
        selector.set_processor_curve(
            1, 0, LinearVFCurve(f_min_hz=mhz(250), v_min=0.9,
                                f_max_hz=ghz(1.0), v_max=1.4))
        assert selector.min_voltage(0, 0, ghz(1.0)) == pytest.approx(
            1.3, abs=0.01)


class TestContinuousUnderControlLoops:
    """The variant runs wherever the base scheduler runs: the daemon always
    passes a frequency ceiling, the coordinator always passes floors."""

    def test_runs_under_the_daemon(self):
        from repro.core.daemon import DaemonConfig, FvsstDaemon
        from repro.sim.driver import Simulation
        from repro.sim.machine import MachineConfig, SMPMachine
        from repro.workloads.profiles import profile_by_name

        machine = SMPMachine(MachineConfig(num_cores=2), seed=1)
        machine.assign(0, profile_by_name("mcf").job(loop=True))
        machine.assign(1, profile_by_name("gzip").job(loop=True))
        daemon = FvsstDaemon(
            machine, DaemonConfig(counter_noise_sigma=0.0),
            scheduler=ContinuousFrequencyScheduler(machine.table,
                                                   epsilon=0.04),
            seed=2)
        sim = Simulation(machine)
        daemon.attach(sim)
        sim.run_for(0.35)
        passes = {e.time_s for e in daemon.log.schedule_entries}
        assert len(passes) >= 3
        for f in machine.frequency_vector_hz():
            assert f in machine.table

    def test_runs_under_the_coordinator(self):
        from repro.cluster.coordinator import (
            ClusterCoordinator,
            CoordinatorConfig,
        )
        from repro.sim.cluster import Cluster
        from repro.sim.driver import Simulation

        cluster = Cluster.homogeneous(2, seed=3)
        table = cluster.nodes[0].machine.table
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(counter_noise_sigma=0.0,
                                       power_limit_w=300.0),
            scheduler=ContinuousFrequencyScheduler(table, epsilon=0.04),
            seed=4)
        coord.attach(Simulation(cluster.machines))
        schedule = coord.run_global_pass(0.0)
        assert schedule.total_power_w <= 300.0
        assert len(coord.log.schedule_entries) == len(schedule.assignments)
