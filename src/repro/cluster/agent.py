"""The per-node agent.

Each node runs a lightweight agent (the cluster analogue of the fvsst
daemon's data-collection half): it samples local counters every ``t``,
aggregates them into per-processor summaries, and on request produces a
:class:`~repro.cluster.protocol.NodeReport`.  Frequency commands from the
coordinator are applied locally through the same actuators the single-node
daemon uses.

Two delivery-failure rules matter on a lossy network:

* counter windows survive until the coordinator *accepts* the report
  (:meth:`NodeAgent.confirm_report`); a dropped report costs a round trip,
  not the data;
* commands are applied by explicit processor id and are idempotent, so a
  retransmitted command is harmless and a stale one (older than the newest
  applied) is ignored.
"""

from __future__ import annotations

from ..errors import ClusterError
from ..sim.counters import CounterReader, CounterSample
from ..sim.driver import Simulation
from ..sim.node import ClusterNode
from ..sim.rng import spawn_rngs
from ..telemetry import EVENT_FREQUENCY_CHANGE, Telemetry, get_telemetry
from ..units import check_positive
from .faults import FaultSchedule
from .protocol import FrequencyCommand, NodeReport, ProcReport

__all__ = ["NodeAgent"]


class NodeAgent:
    """Counter collection and command application on one node."""

    def __init__(self, node: ClusterNode, *,
                 sample_period_s: float = 0.010,
                 counter_noise_sigma: float = 0.005,
                 idle_detection: bool = False,
                 telemetry: Telemetry | None = None,
                 faults: FaultSchedule | None = None,
                 seed: int | None = None) -> None:
        check_positive(sample_period_s, "sample_period_s")
        self.node = node
        self.sample_period_s = sample_period_s
        self.idle_detection = idle_detection
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.faults = faults
        m = self.telemetry.metrics
        self._m_samples = m.counter(
            "agent_counter_samples_total",
            "Per-processor counter reads across all node agents")
        self._m_reports = m.counter(
            "agent_reports_total", "Node reports produced for the coordinator")
        self._m_commands = m.counter(
            "agent_commands_applied_total",
            "Frequency commands applied by node agents")
        rngs = spawn_rngs(seed, node.machine.num_cores)
        self.readers = [
            CounterReader(core.counters, noise_sigma=counter_noise_sigma,
                          rng=rngs[i])
            for i, core in enumerate(node.machine.cores)
        ]
        self._windows: list[list[CounterSample]] = [
            [] for _ in node.machine.cores
        ]
        self._idle_flags = [False] * node.machine.num_cores
        self._attached = False
        #: Samples per window covered by the last unconfirmed report.
        self._pending_counts: list[int] | None = None
        #: Decision time of the newest applied command (stale-command guard).
        self._last_command_time_s = float("-inf")
        self._was_crashed = False

    def attach(self, sim: Simulation) -> None:
        """Install the periodic local sampler."""
        if self._attached:
            raise ClusterError(f"agent of node {self.node.node_id} already attached")
        self._attached = True
        if self.idle_detection:
            for core in self.node.machine.cores:
                core.idle_detector.enabled = True
                core.idle_detector.subscribe(self._on_idle_signal)
        sim.every(self.sample_period_s, self._on_sample,
                  name=f"agent-n{self.node.node_id}-sample")

    # -- crash state -------------------------------------------------------------

    def crashed(self, now_s: float) -> bool:
        """Whether the agent is down at ``now_s``: a manual
        :meth:`~repro.sim.node.ClusterNode.crash` (honoured with or without
        a fault plan) or a scheduled crash window of the plan."""
        if self.node.crashed:
            return True
        return (self.faults is not None
                and self.faults.node_crashed(self.node.node_id, now_s))

    def _on_sample(self, now_s: float) -> None:
        if self.crashed(now_s):
            if not self._was_crashed:
                # The crash wiped the agent's process state: windows and
                # any unconfirmed report snapshot are gone.
                self._was_crashed = True
                for window in self._windows:
                    window.clear()
                self._pending_counts = None
            # The counters keep running under the crashed agent; discard
            # the unobserved interval so recovery starts a clean window.
            for reader in self.readers:
                reader.sample(now_s)
            return
        self._was_crashed = False
        for i, reader in enumerate(self.readers):
            self._windows[i].append(reader.sample(now_s))
        if self.telemetry.enabled:
            self._m_samples.inc(len(self.readers))

    def _on_idle_signal(self, core_id: int, is_idle: bool) -> None:
        self._idle_flags[core_id] = is_idle

    # -- protocol ----------------------------------------------------------------

    def make_report(self, now_s: float) -> NodeReport:
        """Summarise the current windows into a report.

        The windows are *retained* until :meth:`confirm_report` — on a
        lossy network the report may never arrive, and clearing eagerly
        would destroy the window data with it.  An unconfirmed report is
        simply superseded: the next one covers the same samples plus
        whatever accumulated since.
        """
        procs = []
        self._pending_counts = [len(w) for w in self._windows]
        for i, window in enumerate(self._windows):
            procs.append(ProcReport(
                proc_id=i,
                instructions=sum(s.instructions for s in window),
                cycles=sum(s.cycles for s in window),
                n_l2=sum(s.n_l2 for s in window),
                n_l3=sum(s.n_l3 for s in window),
                n_mem=sum(s.n_mem for s in window),
                l1_stall_cycles=sum(s.l1_stall_cycles for s in window),
                halted_cycles=sum(s.halted_cycles for s in window),
                interval_s=sum(s.interval_s for s in window),
                idle_signaled=self._idle_flags[i],
            ))
        if self.telemetry.enabled:
            self._m_reports.inc()
        return NodeReport(node_id=self.node.node_id, time_s=now_s,
                          procs=tuple(procs))

    def confirm_report(self) -> None:
        """Acknowledge delivery of the last report: drop its samples.

        Only the samples the report covered are dropped; anything sampled
        after :meth:`make_report` stays for the next window.
        """
        if self._pending_counts is None:
            return
        for window, count in zip(self._windows, self._pending_counts):
            del window[:count]
        self._pending_counts = None

    def apply_command(self, command: FrequencyCommand, now_s: float) -> None:
        """Set local frequencies per the coordinator's decision.

        Commands address processors by explicit id (:attr:`FrequencyCommand.proc_ids`)
        so a partial command — e.g. one excluding an offline processor —
        retunes exactly the processors it names.  A legacy command without
        ids must cover every processor positionally.  Stale commands
        (older than the newest applied) are dropped: with retransmits a
        delayed duplicate of an old decision must not override a newer one.
        """
        if command.node_id != self.node.node_id:
            raise ClusterError(
                f"command for node {command.node_id} delivered to node "
                f"{self.node.node_id}"
            )
        cores = self.node.machine.cores
        if command.proc_ids is None:
            # Legacy positional encoding: only sound for full-width
            # commands, where slot i is processor i by construction.
            if len(command.freqs_hz) != len(cores):
                raise ClusterError(
                    f"command carries {len(command.freqs_hz)} frequencies for "
                    f"{len(cores)} processors"
                )
            targets = list(zip(cores, command.freqs_hz))
        else:
            targets = []
            for proc_id, freq in zip(command.proc_ids, command.freqs_hz):
                if not 0 <= proc_id < len(cores):
                    raise ClusterError(
                        f"command for node {command.node_id} addresses "
                        f"processor {proc_id}; node has {len(cores)}"
                    )
                targets.append((cores[proc_id], freq))
        if command.time_s < self._last_command_time_s:
            return
        self._last_command_time_s = command.time_s
        tel = self.telemetry
        for core, freq in targets:
            old_hz = core.frequency_setting_hz
            if tel.enabled and old_hz != freq:
                tel.emit(EVENT_FREQUENCY_CHANGE, sim_time_s=now_s,
                         node=self.node.node_id, proc=core.core_id,
                         old_hz=old_hz, new_hz=freq)
            core.set_frequency(freq, now_s)
        if tel.enabled:
            self._m_commands.inc()
