"""A cluster node: one SMP machine plus its identity.

Keeps the machine simulator unaware of clusters; everything cluster-level
(agents, the coordinator, the network) references nodes by this wrapper.
"""

from __future__ import annotations

from ..errors import ClusterError
from ..workloads.job import Job
from .machine import MachineConfig, SMPMachine

__all__ = ["ClusterNode"]


class ClusterNode:
    """One node of a cluster."""

    def __init__(self, node_id: int, machine: SMPMachine) -> None:
        if node_id < 0:
            raise ClusterError("node_id must be non-negative")
        self.node_id = node_id
        self.machine = machine
        #: Manual crash injection: while True the node's agent is down
        #: (no samples, no reports, no command application), with or
        #: without a fault plan installed.  The scheduled analogue is
        #: :class:`repro.cluster.faults.CrashWindow`.
        self.crashed = False

    @classmethod
    def build(cls, node_id: int, *, config: MachineConfig | None = None,
              seed: int | None = None) -> "ClusterNode":
        """Construct a node with a fresh machine."""
        return cls(node_id, SMPMachine(config, seed=seed))

    def crash(self) -> None:
        """Take the node's agent down (fault injection).

        The coordinator stops collecting its reports (the node goes stale,
        then lost) and drops the commands that reach it, whether or not a
        :class:`~repro.cluster.faults.FaultSchedule` is installed.
        """
        self.crashed = True

    def recover(self) -> None:
        """Bring the node's agent back up."""
        self.crashed = False

    @property
    def num_procs(self) -> int:
        return self.machine.num_cores

    def assign(self, proc: int, job: Job) -> None:
        """Place a job on processor ``proc`` of this node."""
        self.machine.assign(proc, job)

    def cpu_power_w(self) -> float:
        """True processor draw of this node."""
        return self.machine.cpu_power_w()

    def __repr__(self) -> str:
        return f"ClusterNode(id={self.node_id}, procs={self.num_procs})"
