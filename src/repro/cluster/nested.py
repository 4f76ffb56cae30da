"""Nested power budgets: per-node limits inside the global limit.

The paper's Figure 3 treats the power limit as global.  Real clusters also
carry *local* limits — a node whose own supply degrades must get under its
node budget regardless of the cluster-wide picture.  The pass itself is
:meth:`FrequencyVoltageScheduler.schedule` with ``node_limits_w`` (see its
docstring: per-node step-2 passes, then the global one, off one shared
loss matrix); this class keeps the nested-budget entry point and the
per-node power readout.
"""

from __future__ import annotations

from typing import Literal, Mapping, Sequence

from ..core.scheduler import (
    FrequencyVoltageScheduler,
    ProcessorView,
    Schedule,
    ViewBatch,
)

__all__ = ["NestedBudgetScheduler"]


class NestedBudgetScheduler(FrequencyVoltageScheduler):
    """Figure 3 with optional per-node limits nested inside the global one."""

    def schedule_nested(
        self,
        views: Sequence[ProcessorView] | ViewBatch,
        global_limit_w: float | None = None,
        node_limits_w: Mapping[int, float] | None = None,
        *,
        max_freq_hz: float | None = None,
        min_freqs_hz: Mapping[int, float] | None = None,
        on_infeasible: Literal["floor", "raise"] = "floor",
    ) -> Schedule:
        """:meth:`schedule` with the node limits as a positional argument."""
        return self.schedule(views, global_limit_w,
                             node_limits_w=node_limits_w,
                             max_freq_hz=max_freq_hz,
                             min_freqs_hz=min_freqs_hz,
                             on_infeasible=on_infeasible)

    def node_power_w(self, schedule: Schedule, node_id: int) -> float:
        """Scheduled power of one node."""
        return sum(a.power_w for a in schedule.assignments
                   if a.node_id == node_id)
