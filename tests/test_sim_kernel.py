"""A fleet of one reproduces the literal scalar chunk loop bit-for-bit.

Every event-free span advances through :func:`repro.sim.fleet.advance_fleet`;
this file re-implements the scalar path literally — the 10 ms per-chunk
loop with the per-core slice loop inside — and asserts *exact* float
equality of every piece of machine state (counters, residency, job
cursors, energy ledger, supply-bank bookkeeping) after advancing one
machine as ``advance_fleet([m], dt)``, on mixed and randomized scenarios,
including overload episodes and cascade failures.  No tolerances
anywhere: one reordered IEEE operation fails the suite.
"""

import copy

import numpy as np
import pytest

from repro.errors import CascadeFailureError
from repro.power.energy import EnergyAccumulator, EnergyLedger
from repro.power.supply import SupplyBank
from repro.power.table import POWER4_TABLE
from repro.sim import Cluster, CoreConfig, MachineConfig, SMPMachine, Simulation
from repro.sim.core import _MIN_SLICE_S
from repro.sim.idle import IdleStyle
from repro.sim.fleet import advance_fleet
from repro.workloads.job import Job, LoopMode
from repro.workloads.synthetic import synthetic_phase


# -- the literal scalar oracle ----------------------------------------------------


def reference_advance(machine, dt):
    """``SMPMachine.advance`` written out literally.

    Scalar chunking at the supply-observation interval, the per-core slice
    loop inlined from ``SimulatedCore.advance``, sequential ledger/bank
    updates per chunk.
    """
    if dt == 0.0:
        return
    start = machine._now_s
    end = start + dt
    if machine.supply_bank is None:
        bounds = [end]
    else:
        step = machine.config.supply_observation_interval_s
        n = int(dt / step)
        while n and start + n * step >= end:
            n -= 1
        bounds = [start + i * step for i in range(1, n + 1)]
        bounds.append(end)
    for t_end in bounds:
        t0 = machine._now_s
        d = t_end - t0
        powers = {f"core{c.core_id}": machine.meter.core_power_w(c, t0)
                  for c in machine.cores}
        powers["non_cpu"] = machine.meter.non_cpu_power_w
        for c in machine.cores:
            if c.offline:
                c._record_residency("__offline__", 0.0, d)
                continue
            t = t0
            e = t0 + d
            while e - t > _MIN_SLICE_S:
                t = c._advance_slice(t, e)
        machine._now_s = t_end
        machine.ledger.advance_to(t_end, powers)
        if machine.supply_bank is not None:
            machine.supply_bank.observe(t_end, machine.system_power_w())


def job_state(job):
    return (job.phase_index, job.phase_progress, job.instructions_retired,
            job.iterations, job.state, job.started_at_s, job.completed_at_s)


def core_state(core):
    # Private attrs (the fleet kernel's counter-snapshot hook) are plumbing,
    # not counter state; machines resident in fleet columns carry them.
    counters = {k: v for k, v in vars(core.counters).items()
                if not k.startswith("_")}
    return (counters, dict(core.phase_time_s),
            dict(core.freq_time_s), core._overhead_debt_s,
            core.overhead_executed_s,
            [job_state(j) for j in core.dispatcher._queue])


def machine_state(m):
    bank = None
    if m.supply_bank is not None:
        bank = (m.supply_bank.overload_since_s, m.supply_bank.cascade_count,
                [s.failed for s in m.supply_bank.supplies])
    return {
        "now": m._now_s,
        "bank": bank,
        "ledger": {name: (a.energy_j, a.last_time_s)
                   for name, a in sorted(m.ledger.accounts.items())},
        "cores": [core_state(c) for c in m.cores],
    }


def run_both(build, script):
    """Run one scenario on a fleet of one and on the oracle.

    ``build()`` must be deterministic (seeded); ``script(machine, advance)``
    replays the identical event sequence on both, advancing through the
    given callable.  Exact state equality afterwards.
    """
    fast = build()
    slow = build()
    script(fast, lambda d: advance_fleet([fast], d))
    script(slow, lambda d: reference_advance(slow, d))
    assert machine_state(fast) == machine_state(slow)
    return fast, slow


def looping_job(name, ratios, *, duration_s=0.05):
    phases = tuple(
        synthetic_phase(r, duration_s=duration_s, name=f"{name}_p{k}")
        for k, r in enumerate(ratios)
    )
    return Job(name=name, phases=phases, loop=LoopMode.LOOP)


# -- mixed-machine scenarios ------------------------------------------------------


def build_mixed(seed=3):
    """One core of each kind: single-job busy, run-queue busy, idle,
    offline (banked, so the run queue is a chunked lane)."""
    m = SMPMachine(
        MachineConfig(num_cores=4,
                      core_config=CoreConfig(latency_jitter_sigma=0.02)),
        supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
        seed=seed,
    )
    m.assign(0, looping_job("solo", (1.0, 0.4, 0.15)))
    m.assign(1, looping_job("pair_a", (0.8,)))
    m.assign(1, looping_job("pair_b", (0.95, 0.3)))
    m.cores[3].offline = True
    return m


def test_mixed_cores_match_reference():
    def script(m, advance):
        advance(0.25)
        now = m.now_s
        m.core(0).set_frequency(POWER4_TABLE.freqs_hz[4], now)
        m.core(2).set_frequency(POWER4_TABLE.freqs_hz[9], now)
        advance(0.107)           # span end off the 10 ms grid
        m.core(1).steal_time(0.003)
        m.core(0).steal_time(0.002)   # debt pushes core 0 to the chunked path
        advance(0.0853)
        advance(0.01)            # exactly one observation chunk
        advance(0.0004)          # sub-chunk span

    run_both(build_mixed, script)


def test_halt_idle_and_zero_jitter_match_reference():
    def build():
        m = SMPMachine(
            MachineConfig(num_cores=3,
                          core_config=CoreConfig(latency_jitter_sigma=0.0,
                                                 idle_style=IdleStyle.HALT)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
            seed=11,
        )
        m.assign(0, looping_job("busy", (0.6, 0.25)))
        m.cores[2].offline = True
        return m

    def script(m, advance):
        advance(0.13)
        m.core(1).set_frequency(POWER4_TABLE.freqs_hz[2], m.now_s)
        advance(0.2)

    run_both(build, script)


def test_no_supply_bank_matches_reference():
    def build():
        m = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.05)),
            seed=7,
        )
        m.assign(0, looping_job("j", (0.85, 0.2, 0.9)))
        return m

    def script(m, advance):
        advance(0.4)
        m.core(0).set_frequency(POWER4_TABLE.freqs_hz[6], m.now_s)
        advance(1.1)

    run_both(build, script)


def test_once_job_full_advance_matches_reference():
    """A banked machine holding ONCE work delegates to the scalar path
    until it drains — including completion mid-span flipping the core idle
    (and its power draw) at an interior chunk boundary."""
    def build():
        m = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
            seed=13,
        )
        m.assign(0, Job(name="once",
                        phases=(synthetic_phase(0.7, duration_s=0.08,
                                                name="only"),),
                        loop=LoopMode.ONCE))
        m.assign(1, looping_job("bg", (0.75,)))
        return m

    def script(m, advance):
        advance(0.3)             # the ONCE job completes inside this span
        advance(0.1)

    fast, _ = run_both(build, script)
    assert fast.cores[0].is_idle


# -- overload and cascade ---------------------------------------------------------


def test_overload_cascade_counting_matches_reference():
    """Failing one PSU puts the stock machine (746 W) over a single supply
    (480 W); the deadline crossing, the cascade to dark, and the episode
    bookkeeping land on identical chunk boundaries."""
    def build():
        m = build_mixed(seed=17)
        m.supply_bank.fail_supply(0)
        return m

    def script(m, advance):
        advance(0.735)           # overload episode running
        advance(1.5)             # crosses the 1 s deadline: cascade, dark

    fast, _ = run_both(build, script)
    assert fast.supply_bank.cascade_count == 1
    assert fast.supply_bank.all_failed


def test_raising_cascade_leaves_identical_partial_state():
    def build():
        m = SMPMachine(
            MachineConfig(num_cores=4,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            supply_bank=SupplyBank.example_p630(),    # raise_on_cascade=True
            seed=23,
        )
        m.assign(0, looping_job("j", (1.0, 0.5)))
        m.supply_bank.fail_supply(0)
        return m

    fast = build()
    slow = build()
    with pytest.raises(CascadeFailureError):
        advance_fleet([fast], 2.0)
    with pytest.raises(CascadeFailureError):
        reference_advance(slow, 2.0)
    # Both stop advanced exactly through the chunk at which observe raised.
    assert machine_state(fast) == machine_state(slow)
    assert fast.supply_bank.cascade_count == 1
    assert fast._now_s < 2.0


# -- randomized multi-segment populations -----------------------------------------


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_randomized_machines_match_reference(seed):
    rng = np.random.default_rng(seed)

    kinds = [int(rng.integers(0, 4)) for _ in range(4)]
    ratios = [float(rng.uniform(0.05, 1.0)) for _ in range(12)]
    durations = [float(rng.uniform(0.01, 0.12)) for _ in range(12)]
    segments = []
    for _ in range(6):
        segments.append((
            float(rng.uniform(0.004, 0.35)),          # span length
            int(rng.integers(0, 4)),                  # core to retune
            int(rng.integers(0, len(POWER4_TABLE.freqs_hz))),
            bool(rng.uniform() < 0.3),                # steal daemon time?
        ))

    def build():
        m = SMPMachine(
            MachineConfig(num_cores=4,
                          core_config=CoreConfig(latency_jitter_sigma=0.03)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
            seed=seed,
        )
        k = iter(range(12))
        for c, kind in enumerate(kinds):
            if kind == 0:            # single looping job
                m.assign(c, looping_job(
                    f"c{c}", (ratios[next(k)], ratios[next(k)]),
                    duration_s=durations[c]))
            elif kind == 1:          # two jobs: a chunked run-queue lane
                m.assign(c, looping_job(f"c{c}a", (ratios[next(k)],),
                                        duration_s=durations[c]))
                m.assign(c, looping_job(f"c{c}b", (ratios[next(k)],),
                                        duration_s=durations[c + 4]))
            elif kind == 2:          # idle hot loop
                pass
            else:
                m.cores[c].offline = True
        return m

    def script(m, advance):
        for dt, core, fidx, steal in segments:
            advance(dt)
            m.core(core).set_frequency(POWER4_TABLE.freqs_hz[fidx], m.now_s)
            if steal:
                m.core(core).steal_time(0.0015)

    run_both(build, script)


# -- driver and cluster routing ---------------------------------------------------


def test_simulation_events_cut_spans_identically():
    f_low = POWER4_TABLE.freqs_hz[1]

    def build():
        m = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
            seed=29,
        )
        m.assign(0, looping_job("j", (1.0, 0.3)))
        return m

    fast = build()
    sim = Simulation(fast)
    sim.at(0.0377, lambda t: fast.core(0).set_frequency(f_low, t))
    sim.run_until(0.1)

    slow = build()
    reference_advance(slow, 0.0377)
    slow.core(0).set_frequency(f_low, 0.0377)
    reference_advance(slow, 0.1 - 0.0377)

    assert machine_state(fast) == machine_state(slow)


def test_cluster_advance_matches_reference():
    def build():
        cluster = Cluster.homogeneous(
            2,
            machine_config=MachineConfig(
                num_cores=2,
                core_config=CoreConfig(latency_jitter_sigma=0.02)),
            seed=31,
        )
        for i, m in enumerate(cluster.machines):
            m.assign(0, looping_job(f"n{i}", (0.9, 0.2)))
        return cluster

    fast = build()
    slow = build()
    fast.advance(0.5)
    for m in slow.machines:
        reference_advance(m, 0.5)
    for a, b in zip(fast.machines, slow.machines):
        assert machine_state(a) == machine_state(b)


# -- bulk energy accumulation -----------------------------------------------------


class TestEnergyAdvanceMany:
    def test_matches_sequential_advance_to(self):
        times = [0.013, 0.0371, 0.0371, 0.12, 1.5]
        a = EnergyAccumulator()
        b = EnergyAccumulator()
        for t in times:
            a.advance_to(t, 73.25)
        b.advance_many(np.asarray(times), 73.25)
        assert (a.energy_j, a.last_time_s) == (b.energy_j, b.last_time_s)

    def test_zero_power_only_moves_time(self):
        a = EnergyAccumulator()
        a.advance_to(0.5, 10.0)
        a.advance_many(np.asarray([0.7, 0.9]), 0.0)
        assert a.energy_j == 5.0
        assert a.last_time_s == 0.9

    def test_empty_is_a_no_op(self):
        a = EnergyAccumulator()
        a.advance_many(np.asarray([]), 50.0)
        assert (a.energy_j, a.last_time_s) == (0.0, 0.0)

    def test_backwards_time_raises(self):
        from repro.errors import SimulationError
        a = EnergyAccumulator()
        a.advance_to(1.0, 1.0)
        with pytest.raises(SimulationError):
            a.advance_many(np.asarray([0.5]), 1.0)
        with pytest.raises(SimulationError):
            a.advance_many(np.asarray([1.5, 1.2]), 1.0)

    def test_ledger_matches_sequential(self):
        times = [0.01, 0.02, 0.35]
        powers = {"core0": 120.0, "non_cpu": 186.0}
        a = EnergyLedger()
        b = EnergyLedger()
        a.account("idle_before")         # unmentioned account advances at 0 W
        b.account("idle_before")
        for t in times:
            a.advance_to(t, powers)
        b.advance_many(np.asarray(times), powers)
        assert {n: (x.energy_j, x.last_time_s) for n, x in a.accounts.items()} \
            == {n: (x.energy_j, x.last_time_s) for n, x in b.accounts.items()}


# -- supply-span planning ---------------------------------------------------------


def bank_state(bank):
    return (bank.overload_since_s, bank.cascade_count,
            [s.failed for s in bank.supplies])


def replay_plan(bank, times, demand):
    n_exec, actions = bank.plan_constant_span(times, demand)
    for j in actions:
        bank.observe(times[j], demand)
    return n_exec


class TestPlanConstantSpan:
    TIMES = [round(0.01 * i, 10) for i in range(1, 301)]   # 3 s of 10 ms chunks

    def check(self, make_bank, demand):
        lit = make_bank()
        plan = make_bank()
        raised_lit = raised_plan = False
        try:
            for t in self.TIMES:
                lit.observe(t, demand)
        except CascadeFailureError:
            raised_lit = True
        try:
            replay_plan(plan, self.TIMES, demand)
        except CascadeFailureError:
            raised_plan = True
        assert raised_lit == raised_plan
        assert bank_state(lit) == bank_state(plan)

    def test_below_capacity(self):
        self.check(lambda: SupplyBank.example_p630(raise_on_cascade=False),
                   400.0)

    def test_overload_cascades_to_dark(self):
        def make():
            b = SupplyBank.example_p630(raise_on_cascade=False)
            b.fail_supply(0)
            return b
        self.check(make, 746.0)

    def test_overload_with_raise(self):
        def make():
            b = SupplyBank.example_p630()
            b.fail_supply(0)
            return b
        self.check(make, 746.0)

    def test_raise_cuts_span_at_cascade_boundary(self):
        b = SupplyBank.example_p630()
        b.fail_supply(0)
        n_exec, actions = b.plan_constant_span(self.TIMES, 746.0)
        assert n_exec < len(self.TIMES)
        assert actions[-1] == n_exec - 1
        # Planning is pure: nothing moved yet.
        assert bank_state(b) == (None, 0, [True, False])

    def test_mid_episode_resume(self):
        """A plan starting inside a running overload episode honours the
        already-elapsed deadline time."""
        def make():
            b = SupplyBank.example_p630(raise_on_cascade=False)
            b.fail_supply(0)
            b.observe(0.005, 746.0)      # episode opened before the span
            return b
        self.check(make, 746.0)

    def test_dark_bank_is_all_no_ops(self):
        b = SupplyBank.example_p630(raise_on_cascade=False)
        b.fail_supply(0)
        b.fail_supply(0)
        n_exec, actions = b.plan_constant_span(self.TIMES, 500.0)
        assert n_exec == len(self.TIMES)
        assert actions == []
