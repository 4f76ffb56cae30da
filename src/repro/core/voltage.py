"""Minimum-voltage assignment (Figure 3, step 3).

"The algorithm relies on a table look-up to determine the lowest voltage
setting allowed for the selected frequency of each processor.  It may be
the case that the voltage table is different for each processor if there is
significant process variation among them."

A :class:`VoltageSelector` maps (node, proc, frequency) to a voltage via a
default curve plus optional per-processor overrides.  The default curve is
the V(f) recovered by the Lava fit of Table 1.
"""

from __future__ import annotations

from typing import Sequence

from .. import constants
from ..power.table import POWER4_TABLE
from ..power.vf_curve import LinearVFCurve, VoltageFrequencyCurve

__all__ = ["default_vf_curve", "VoltageSelector"]

#: ``v_min`` of :func:`repro.power.lava.fit_lava_model` on Table 1 — the
#: one fitted number the default curve needs, committed so that building
#: a scheduler neither imports scipy nor re-runs the fit.
#: ``tests/test_power_vf_lava.py`` re-fits and pins it.
TABLE1_FIT_V_MIN = 0.6845275286529459

_DEFAULT_CURVE = LinearVFCurve(
    f_min_hz=POWER4_TABLE.f_min_hz, v_min=TABLE1_FIT_V_MIN,
    f_max_hz=POWER4_TABLE.f_max_hz, v_max=constants.NOMINAL_VDD)


def default_vf_curve() -> VoltageFrequencyCurve:
    """The minimum-voltage curve implied by Table 1 (the Lava fit's V(f))."""
    return _DEFAULT_CURVE


class VoltageSelector:
    """Per-processor minimum-voltage lookup with process-variation overrides."""

    def __init__(self, curve: VoltageFrequencyCurve | None = None) -> None:
        self._default = curve if curve is not None else default_vf_curve()
        self._overrides: dict[tuple[int, int], VoltageFrequencyCurve] = {}
        # Per-curve memo: ladders have ~16 rungs, so a pass over hundreds of
        # processors asks for the same handful of voltages.  Keyed by curve
        # identity; cleared whenever the curve set changes, so an id() can
        # never outlive the curve it names.
        self._cache: dict[tuple[int, float], float] = {}

    def set_processor_curve(self, node_id: int, proc_id: int,
                            curve: VoltageFrequencyCurve) -> None:
        """Install a processor-specific curve (process variation)."""
        self._overrides[(node_id, proc_id)] = curve
        self._cache.clear()

    def min_voltage(self, node_id: int, proc_id: int, freq_hz: float) -> float:
        """The lowest stable voltage for this processor at this frequency."""
        curve = self._overrides.get((node_id, proc_id), self._default)
        key = (id(curve), freq_hz)
        v = self._cache.get(key)
        if v is None:
            v = self._cache[key] = curve.min_voltage(freq_hz)
        return v

    def rung_voltages(self, freqs_hz: Sequence[float]) -> list[float] | None:
        """Per-rung voltages when every processor shares the default curve,
        or ``None`` when process-variation overrides make the answer
        processor-dependent.  Lets a scheduling pass replace P per-processor
        lookups with one list indexed by rung."""
        if self._overrides:
            return None
        return [self.min_voltage(0, 0, f) for f in freqs_hz]
