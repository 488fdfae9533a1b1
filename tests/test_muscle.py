import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myoctl.muscle import (
    CalibrationError,
    MuscleGeometry,
    MuscleParams,
    actuator_force,
    calibrate_geometry,
    flv_curves,
    gain_bias,
    normalized_state,
)


class TestCalibration:
    def test_identity_scaling(self):
        params = MuscleParams(force_override=1.0)
        geom = calibrate_geometry(0.75, 1.05, params, 1.0)
        assert geom.l0 == pytest.approx(1.0)
        assert geom.lt == pytest.approx(0.0, abs=1e-15)
        assert geom.f0 == 1.0

    def test_small_operating_range(self):
        # Hand-solved 2x2 system: op_min = lt + 0.75*l0, op_max = lt + 1.05*l0
        # with op range [0.30, 0.36] gives l0 = 0.06/0.30 = 0.2, lt = 0.15.
        geom = calibrate_geometry(0.30, 0.36, MuscleParams(force_override=1.0), 1.0)
        assert geom.l0 == pytest.approx(0.2)
        assert geom.lt == pytest.approx(0.15)

    def test_auto_peak_force(self):
        # force_override sentinel: f0 = scale / acc0 = 200 / 100 = 2.
        geom = calibrate_geometry(0.75, 1.05, MuscleParams(scale=200.0), 100.0)
        assert geom.f0 == pytest.approx(2.0)

    def test_override_wins_over_transmission(self):
        geom = calibrate_geometry(0.75, 1.05, MuscleParams(force_override=7.0), 100.0)
        assert geom.f0 == 7.0

    def test_negative_slack_names_actuator(self):
        with pytest.raises(CalibrationError, match="fdp"):
            calibrate_geometry(0.0, 0.3, MuscleParams(), 1.0, name="fdp")

    def test_zero_transmission_requires_override(self):
        with pytest.raises(CalibrationError, match="force_override"):
            calibrate_geometry(0.75, 1.05, MuscleParams(), 0.0)

    def test_degenerate_range_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_geometry(0.36, 0.30, MuscleParams(force_override=1.0), 1.0)

    @given(
        op_min=st.floats(0.05, 2.0),
        span=st.floats(0.01, 1.0),
        lo=st.floats(0.3, 0.9),
        width=st.floats(0.05, 0.6),
    )
    @settings(max_examples=200, deadline=None)
    def test_calibration_is_exact(self, op_min, span, lo, width):
        params = MuscleParams(range_lo=lo, range_hi=lo + width, force_override=1.0)
        op_max = op_min + span
        try:
            geom = calibrate_geometry(op_min, op_max, params, 1.0)
        except CalibrationError:
            return  # negative slack length for this draw; not the property under test
        assert geom.lt + lo * geom.l0 == pytest.approx(op_min, rel=1e-12, abs=1e-14)
        assert geom.lt + (lo + width) * geom.l0 == pytest.approx(op_max, rel=1e-12, abs=1e-14)


class TestNormalizedState:
    def test_optimal_length(self):
        geom = MuscleGeometry(l0=0.2, lt=0.15, f0=1.0)
        norm_len, norm_vel = normalized_state(geom.lt + geom.l0, 0.0, geom)
        assert norm_len == pytest.approx(1.0)
        assert norm_vel == 0.0

    def test_direct_substitution(self):
        geom = MuscleGeometry(l0=0.2, lt=0.15, f0=1.0)
        norm_len, norm_vel = normalized_state(0.33, 0.02, geom)
        assert norm_len == pytest.approx(0.9)
        assert norm_vel == pytest.approx(0.1)

    def test_zero_muscle_length(self):
        geom = MuscleGeometry(l0=0.5, lt=0.2, f0=1.0)
        norm_len, norm_vel = normalized_state(geom.lt, 0.3, geom)
        assert norm_len == 0.0
        assert norm_vel == pytest.approx(0.3 / 0.5)


class TestCurves:
    params = MuscleParams()

    def test_normalization_at_optimum(self):
        fl, fv, fp = flv_curves(1.0, 0.0, self.params)
        assert (fl, fv, fp) == (1.0, 1.0, 0.0)

    def test_active_curve_vanishes_at_knots(self):
        assert flv_curves(self.params.lmin, 0.0, self.params)[0] == 0.0
        assert flv_curves(self.params.lmax, 0.0, self.params)[0] == 0.0

    def test_passive_curve_reaches_fpmax(self):
        assert flv_curves(self.params.lmax, 0.0, self.params)[2] == pytest.approx(
            self.params.fpmax
        )

    def test_shortening_cutoff(self):
        for vel in (-self.params.vmax, -1.5 * self.params.vmax, -10.0):
            assert flv_curves(1.0, vel, self.params)[1] == 0.0

    def test_curve_supports(self):
        p = self.params
        grid = np.linspace(p.lmin - 0.5, p.lmax + 0.5, 2001)
        fl = np.asarray(flv_curves(grid, 0.0, p)[0])
        assert np.all(fl[(grid <= p.lmin) | (grid >= p.lmax)] == 0.0)
        assert np.all((fl >= 0.0) & (fl <= 1.0))
        fp = np.asarray(flv_curves(grid, 0.0, p)[2])
        assert np.all(fp[grid <= 1.0] == 0.0)
        assert np.all(fp >= 0.0)

    def test_velocity_curve_plateau_and_monotone(self):
        p = self.params
        plateau_start = p.vmax * (p.fvmax - 1.0)
        assert flv_curves(1.0, plateau_start, p)[1] == pytest.approx(p.fvmax)
        assert flv_curves(1.0, 10.0 * p.vmax, p)[1] == p.fvmax
        grid = np.linspace(-2 * p.vmax, 2 * p.vmax, 4001)
        fv = np.asarray(flv_curves(1.0, grid, p)[1])
        assert np.all(np.diff(fv) >= -1e-15)
        assert np.all((fv >= 0.0) & (fv <= p.fvmax + 1e-15))

    def test_continuity_on_dense_grids(self):
        # Successive values on an h-spaced grid may differ by at most
        # 10 * h * slope_bound with slope_bound 20.
        p = self.params
        h = 1e-4
        bound = 10.0 * h * 20.0
        lgrid = np.arange(p.lmin - 0.5, p.lmax + 0.5, h)
        fl, _, fp = flv_curves(lgrid, 0.0, p)
        assert np.abs(np.diff(fl)).max() < bound
        assert np.abs(np.diff(fp)).max() < bound
        vgrid = np.arange(-2 * p.vmax, 2 * p.vmax, h)
        fv = np.asarray(flv_curves(1.0, vgrid, p)[1])
        assert np.abs(np.diff(fv)).max() < bound


class TestGainBias:
    params = MuscleParams()
    geom = MuscleGeometry(l0=1.0, lt=0.0, f0=2.0)

    def test_optimum(self):
        gain, bias = gain_bias(1.0, 0.0, self.geom, self.params)
        assert gain == pytest.approx(-2.0)
        assert bias == 0.0

    def test_zero_gain_outside_active_range(self):
        gain, _ = gain_bias(self.params.lmin, 0.0, self.geom, self.params)
        assert gain == 0.0

    def test_passive_bias_at_lmax(self):
        _, bias = gain_bias(self.params.lmax, 0.0, self.geom, self.params)
        assert bias == pytest.approx(-2.0 * self.params.fpmax)  # -2.6 with fpmax 1.3

    def test_never_positive(self):
        rng = np.random.default_rng(0)
        lengths = rng.uniform(0.0, 2.5, 200)
        vels = rng.uniform(-4.0, 4.0, 200)
        gain, bias = gain_bias(lengths, vels, self.geom, self.params)
        assert np.all(np.asarray(gain) <= 0.0)
        assert np.all(np.asarray(bias) <= 0.0)


class TestActuatorForce:
    params = MuscleParams()
    geom = MuscleGeometry(l0=1.0, lt=0.0, f0=2.0)

    def test_full_activation(self):
        assert actuator_force(1.0, 0.0, 1.0, self.geom, self.params) == pytest.approx(-2.0)

    def test_zero_activation_no_passive(self):
        assert actuator_force(1.0, 0.0, 0.0, self.geom, self.params) == 0.0

    def test_linear_in_activation(self):
        assert actuator_force(1.0, 0.0, 0.5, self.geom, self.params) == pytest.approx(-1.0)

    def test_activation_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            actuator_force(1.0, 0.0, 1.5, self.geom, self.params)
        with pytest.raises(ValueError):
            actuator_force(1.0, 0.0, -0.1, self.geom, self.params)

    @given(
        norm_len=st.floats(-0.5, 3.0),
        norm_vel=st.floats(-5.0, 5.0),
        act=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_affine_decomposition_is_exact(self, norm_len, norm_vel, act):
        gain, bias = gain_bias(norm_len, norm_vel, self.geom, self.params)
        force = actuator_force(norm_len, norm_vel, act, self.geom, self.params)
        assert force == gain * act + bias
        assert force <= 0.0


class TestParamValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"range_lo": 0.0},
            {"range_lo": 1.1, "range_hi": 1.0},
            {"lmin": 1.2},
            {"lmax": 0.9},
            {"vmax": 0.0},
            {"fpmax": -0.1},
            {"fvmax": 0.9},
            {"scale": 0.0},
            {"tau_act": 0.0},
            {"tau_deact": -1.0},
            {"tau_smooth": -0.001},
            {"tau_smooth": 0.0},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MuscleParams(**kwargs)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            MuscleGeometry(l0=0.0, lt=0.0, f0=1.0)
        with pytest.raises(ValueError):
            MuscleGeometry(l0=1.0, lt=-0.1, f0=1.0)
        with pytest.raises(ValueError):
            MuscleGeometry(l0=1.0, lt=0.0, f0=0.0)
