"""Process variation: per-processor power tables.

Section 5 already admits per-processor *voltage* tables ("the voltage table
is different for each processor if there is significant process
variation"); the same physics makes per-processor *power* differ too — a
leaky part draws more at every operating point.  The related work
(Section 3.2, Kumar et al.; Ghiasi & Grunwald) studies exactly such
single-ISA heterogeneous parts.

:class:`HeterogeneousScheduler` runs Figure 3 with a per-processor power
lookup: step 2's greedy pass then naturally prefers shedding power where a
watt buys the least performance *on that specific part*, and the predicted
total honestly reflects the mixed silicon.  A homogeneous scheduler on the
same machine under-estimates the draw of leaky parts and can violate the
budget it believes it met — the ``variation`` experiment measures that gap.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import constants
from ..errors import SchedulingError
from ..power.table import FrequencyPowerTable
from ..telemetry import Telemetry
from .scheduler import FrequencyVoltageScheduler, ProcessorView
from .voltage import VoltageSelector

__all__ = ["HeterogeneousScheduler"]


class HeterogeneousScheduler(FrequencyVoltageScheduler):
    """Figure 3 with per-processor operating-point tables."""

    def __init__(self, default_table: FrequencyPowerTable, *,
                 epsilon: float = constants.DEFAULT_EPSILON,
                 voltage_selector: VoltageSelector | None = None,
                 telemetry: Telemetry | None = None) -> None:
        super().__init__(default_table, epsilon=epsilon,
                         voltage_selector=voltage_selector,
                         telemetry=telemetry)
        self._tables: dict[tuple[int, int], FrequencyPowerTable] = {}

    def set_processor_table(self, node_id: int, proc_id: int,
                            table: FrequencyPowerTable) -> None:
        """Install a processor-specific table.

        Every per-processor table must offer the same frequency set as the
        default (the parts are the same design at the same operating
        points; only their power differs).
        """
        if table.freqs_hz != self.table.freqs_hz:
            raise SchedulingError(
                "per-processor table must share the default frequency set"
            )
        self._tables[(node_id, proc_id)] = table

    def table_for(self, node_id: int, proc_id: int) -> FrequencyPowerTable:
        """The table in force for one processor."""
        return self._tables.get((node_id, proc_id), self.table)

    def power_for(self, node_id: int, proc_id: int, freq_hz: float) -> float:
        return self.table_for(node_id, proc_id).power_at(freq_hz)

    def _power_ladders(self, views: Sequence[ProcessorView]) -> np.ndarray:
        # Bulk form of power_for: one cached row per processor's table.
        return np.array([
            self.table_for(v.node_id, v.proc_id).powers_array()
            for v in views
        ])

    @classmethod
    def from_scales(cls, default_table: FrequencyPowerTable,
                    scales: dict[tuple[int, int], float], *,
                    epsilon: float = constants.DEFAULT_EPSILON,
                    voltage_selector: VoltageSelector | None = None
                    ) -> "HeterogeneousScheduler":
        """Build from per-processor power multipliers (the common
        corner-lot description: 'this part draws 12% more')."""
        scheduler = cls(default_table, epsilon=epsilon,
                        voltage_selector=voltage_selector)
        for key, scale in scales.items():
            scheduler.set_processor_table(
                key[0], key[1], default_table.scaled_power(scale))
        return scheduler
