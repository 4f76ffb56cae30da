"""Voltage curves and the Lava-fit calibrator."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.voltage import TABLE1_FIT_V_MIN, default_vf_curve
from repro.errors import PowerModelError
from repro.power.lava import fit_lava_model
from repro.power.table import POWER4_TABLE
from repro.power.vf_curve import LinearVFCurve, TableVFCurve
from repro.units import ghz, mhz


class TestLinearVFCurve:
    CURVE = LinearVFCurve(f_min_hz=mhz(250), v_min=0.7,
                          f_max_hz=ghz(1.0), v_max=1.3)

    def test_endpoints(self):
        assert self.CURVE.min_voltage(mhz(250)) == pytest.approx(0.7)
        assert self.CURVE.min_voltage(ghz(1.0)) == pytest.approx(1.3)

    def test_midpoint_interpolates(self):
        assert self.CURVE.min_voltage(mhz(625)) == pytest.approx(1.0)

    def test_clamps_below_floor(self):
        assert self.CURVE.min_voltage(mhz(100)) == pytest.approx(0.7)

    def test_rejects_above_rated_max(self):
        with pytest.raises(PowerModelError):
            self.CURVE.min_voltage(ghz(1.2))

    def test_vectorised_matches_scalar(self):
        freqs = np.array([mhz(250), mhz(500), mhz(750), ghz(1.0)])
        np.testing.assert_allclose(
            self.CURVE.min_voltage_array(freqs),
            [self.CURVE.min_voltage(f) for f in freqs],
        )

    def test_inverted_anchors_rejected(self):
        with pytest.raises(PowerModelError):
            LinearVFCurve(f_min_hz=ghz(1.0), v_min=0.7,
                          f_max_hz=mhz(250), v_max=1.3)


class TestTableVFCurve:
    CURVE = TableVFCurve({mhz(600): 1.0, mhz(800): 1.1, ghz(1.0): 1.3})

    def test_exact_lookup(self):
        assert self.CURVE.min_voltage(mhz(800)) == pytest.approx(1.1)

    def test_intermediate_rounds_up_conservatively(self):
        # A frequency between table points needs the higher voltage.
        assert self.CURVE.min_voltage(mhz(700)) == pytest.approx(1.1)

    def test_above_table_rejected(self):
        with pytest.raises(PowerModelError):
            self.CURVE.min_voltage(ghz(1.1))

    def test_voltage_must_be_monotone(self):
        with pytest.raises(PowerModelError):
            TableVFCurve({mhz(600): 1.2, mhz(800): 1.0})


class TestLavaFit:
    FIT = fit_lava_model(POWER4_TABLE)

    def test_reproduces_table_within_ten_percent(self):
        for f, p in POWER4_TABLE:
            assert self.FIT.power_w(f) == pytest.approx(p, rel=0.10)

    def test_reported_errors_are_consistent(self):
        rel = [abs(self.FIT.power_w(f) - p) / p for f, p in POWER4_TABLE]
        assert self.FIT.max_rel_error == pytest.approx(max(rel), rel=1e-6)
        assert self.FIT.rms_rel_error <= self.FIT.max_rel_error

    def test_physical_parameters(self):
        assert self.FIT.cmos.capacitance_f > 0
        assert self.FIT.cmos.leakage_s >= 0
        assert 0.4 * 1.3 <= self.FIT.vf_curve.v_min <= 1.3
        assert self.FIT.vf_curve.v_max == pytest.approx(1.3)

    def test_power_curve_monotone(self):
        freqs = np.linspace(mhz(250), ghz(1.0), 64)
        powers = self.FIT.power_array_w(freqs)
        assert np.all(np.diff(powers) > 0)

    def test_regenerate_table_roundtrip(self):
        regenerated = self.FIT.regenerate_table(POWER4_TABLE.freqs_hz)
        assert len(regenerated) == len(POWER4_TABLE)
        for (f1, p1), (f2, p2) in zip(regenerated, POWER4_TABLE):
            assert f1 == f2
            assert p1 == pytest.approx(p2, rel=0.10)

    def test_regenerate_other_ladder(self):
        coarse = self.FIT.regenerate_table([mhz(300), mhz(600), mhz(900)])
        assert len(coarse) == 3
        assert coarse.power_at(mhz(600)) == pytest.approx(48.0, rel=0.10)

    def test_bad_floor_fraction_rejected(self):
        with pytest.raises(PowerModelError):
            fit_lava_model(POWER4_TABLE, v_floor_fraction=1.5)


class TestCommittedDefaultCurve:
    """``default_vf_curve()`` is built from one committed fitted float,
    so constructing a scheduler neither imports scipy nor re-runs the
    fit.  A fresh fit must still agree with it."""

    def test_fresh_fit_matches_committed_curve(self):
        fitted = fit_lava_model(POWER4_TABLE).vf_curve
        committed = default_vf_curve()
        assert isinstance(committed, LinearVFCurve)
        assert committed.f_min_hz == fitted.f_min_hz
        assert committed.f_max_hz == fitted.f_max_hz
        assert committed.v_max == fitted.v_max
        assert committed.v_min == TABLE1_FIT_V_MIN
        # Bit-equal on the toolchain the constant was taken from; another
        # BLAS/scipy build may move the optimiser's last bits.
        assert fitted.v_min == pytest.approx(TABLE1_FIT_V_MIN, rel=1e-12)

    def test_import_leaves_scipy_unloaded(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        code = ("import sys, repro\n"
                "from repro.core.scheduler import FrequencyVoltageScheduler\n"
                "from repro.power.table import POWER4_TABLE\n"
                "FrequencyVoltageScheduler(POWER4_TABLE)\n"
                "print(sorted(m for m in sys.modules if m == 'scipy'"
                " or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
