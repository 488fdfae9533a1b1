import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import step_oracle
from myoctl.muscle import (
    CalibrationError,
    MuscleGeometry,
    MuscleParams,
    _fl,
    _fl_args,
    _fp,
    _fp_args,
    _fv,
    _fv_args,
    calibrate_geometry,
    fl_curve,
    fp_curve,
    fv_curve,
    smoothstep,
    step_activation,
)
from myoctl.plant import PlantError, PlantState, _gain_bias, _normalized, make_fixture


def plant_with(geom, params=MuscleParams()):
    """The toy finger with every actuator given ``geom`` and ``params``."""
    base = make_fixture("toy_finger")
    n = base.nactuators
    return dataclasses.replace(base, params=(params,) * n, geometry=(geom,) * n)


def flv(norm_len, norm_vel, p):
    """``(FL, FV, FP)`` from the public curves."""
    return (
        fl_curve(norm_len, p.lmin, p.lmax),
        fv_curve(norm_vel, p.vmax, p.fvmax),
        fp_curve(norm_len, p.lmax, p.fpmax),
    )


def piecewise_reference(norm_len, norm_vel, p):
    """``(FL, FV, FP)`` written branch by branch, as the curves are defined."""
    length, v = np.asarray(norm_len, dtype=float), np.asarray(norm_vel, dtype=float) / p.vmax
    left, right = 0.5 * (p.lmin + 1.0), 0.5 * (1.0 + p.lmax)
    fl = np.select(
        [(length <= p.lmin) | (length >= p.lmax), length < left, length < 1.0, length < right],
        [0.0,
         0.5 * ((length - p.lmin) / (left - p.lmin)) ** 2,
         1.0 - 0.5 * ((1.0 - length) / (1.0 - left)) ** 2,
         1.0 - 0.5 * ((length - 1.0) / (right - 1.0)) ** 2],
        0.5 * ((p.lmax - length) / (p.lmax - right)) ** 2,
    )
    y = p.fvmax - 1.0
    fv = np.select(
        [v <= -1.0, v <= 0.0, v <= y],
        [0.0, (v + 1.0) ** 2, p.fvmax - (y - v) ** 2 / max(y, 1e-12)],
        p.fvmax,
    )
    b = 0.5 * (1.0 + p.lmax)
    t = (length - 1.0) / (b - 1.0)
    fp = np.select(
        [length <= 1.0, length <= b],
        [0.0, 0.25 * p.fpmax * t**3],
        0.25 * p.fpmax * (1.0 + 3.0 * (length - b) / (b - 1.0)),
    )
    return fl, fv, fp


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

    def test_optimal_length_that_underflows_to_zero_is_named(self):
        # An increasing range whose width divided by the window's underflows.
        with pytest.raises(CalibrationError,
                           match=r"^fdp: calibrated optimal length 0\.0 is not positive$"):
            calibrate_geometry(0.0, 5e-324, MuscleParams(range_lo=0.5, range_hi=3.0), 1.0,
                               name="fdp")

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
    geom = MuscleGeometry(l0=0.2, lt=0.15, f0=1.0)

    def normalized(self, length, velocity):
        n = 4
        return _normalized(plant_with(self.geom), np.full(n, length), np.full(n, velocity))

    def test_optimal_length(self):
        norm_len, norm_vel = self.normalized(self.geom.lt + self.geom.l0, 0.0)
        assert norm_len == pytest.approx(np.ones(4))
        assert np.all(norm_vel == 0.0)

    def test_direct_substitution(self):
        norm_len, norm_vel = self.normalized(0.33, 0.02)
        assert norm_len == pytest.approx(np.full(4, 0.9))
        assert norm_vel == pytest.approx(np.full(4, 0.1))

    def test_zero_muscle_length(self):
        geom = MuscleGeometry(l0=0.5, lt=0.2, f0=1.0)
        norm_len, norm_vel = _normalized(plant_with(geom), np.full(4, geom.lt), np.full(4, 0.3))
        assert np.all(norm_len == 0.0)
        assert norm_vel == pytest.approx(np.full(4, 0.3 / 0.5))


class TestCurves:
    params = MuscleParams()

    def test_normalization_at_optimum(self):
        fl, fv, fp = flv(1.0, 0.0, self.params)
        assert (fl, fv, fp) == (1.0, 1.0, 0.0)

    def test_active_curve_vanishes_at_knots(self):
        p = self.params
        assert fl_curve(p.lmin, p.lmin, p.lmax) == 0.0
        assert fl_curve(p.lmax, p.lmin, p.lmax) == 0.0

    def test_passive_curve_reaches_fpmax(self):
        p = self.params
        assert fp_curve(p.lmax, p.lmax, p.fpmax) == pytest.approx(p.fpmax)

    def test_shortening_cutoff(self):
        p = self.params
        for vel in (-p.vmax, -1.5 * p.vmax, -10.0):
            assert fv_curve(vel, p.vmax, p.fvmax) == 0.0

    def test_curve_supports(self):
        p = self.params
        grid = np.linspace(p.lmin - 0.5, p.lmax + 0.5, 2001)
        fl = np.asarray(fl_curve(grid, p.lmin, p.lmax))
        assert np.all(fl[(grid <= p.lmin) | (grid >= p.lmax)] == 0.0)
        assert np.all((fl >= 0.0) & (fl <= 1.0))
        fp = np.asarray(fp_curve(grid, p.lmax, p.fpmax))
        assert np.all(fp[grid <= 1.0] == 0.0)
        assert np.all(fp >= 0.0)

    def test_velocity_curve_plateau_and_monotone(self):
        p = self.params
        plateau_start = p.vmax * (p.fvmax - 1.0)
        assert fv_curve(plateau_start, p.vmax, p.fvmax) == pytest.approx(p.fvmax)
        assert fv_curve(10.0 * p.vmax, p.vmax, p.fvmax) == p.fvmax
        grid = np.linspace(-2 * p.vmax, 2 * p.vmax, 4001)
        fv = np.asarray(fv_curve(grid, p.vmax, p.fvmax))
        assert np.all(np.diff(fv) >= -1e-15)
        assert np.all((fv >= 0.0) & (fv <= p.fvmax + 1e-15))

    def test_continuity_on_dense_grids(self):
        # Successive values on an h-spaced grid may differ by at most
        # 10 * h * slope_bound with slope_bound 20.
        p = self.params
        h = 1e-4
        bound = 10.0 * h * 20.0
        lgrid = np.arange(p.lmin - 0.5, p.lmax + 0.5, h)
        fl, _, fp = flv(lgrid, 0.0, p)
        assert np.abs(np.diff(fl)).max() < bound
        assert np.abs(np.diff(fp)).max() < bound
        vgrid = np.arange(-2 * p.vmax, 2 * p.vmax, h)
        fv = np.asarray(fv_curve(vgrid, p.vmax, p.fvmax))
        assert np.abs(np.diff(fv)).max() < bound


valid_params = st.builds(
    MuscleParams,
    lmin=st.floats(0.05, 0.95),
    lmax=st.floats(1.05, 3.0),
    vmax=st.floats(0.1, 10.0),
    fpmax=st.floats(0.0, 5.0),
    fvmax=st.one_of(st.just(1.0), st.floats(1.0, 2.5)),
)


class TestKernels:
    """The lean kernels against the public curves and the piecewise definition."""

    @given(p=valid_params)
    @settings(max_examples=200, deadline=None)
    def test_kernels_on_derived_constants_match_the_public_curves(self, p):
        lgrid = np.linspace(p.lmin - 0.5, p.lmax + 0.5, 1001)
        vgrid = np.linspace(-2.0 * p.vmax, 2.0 * p.vmax, 1001)
        fl = _fl(lgrid, *_fl_args(p.lmin, p.lmax))
        fv = _fv(vgrid, *_fv_args(p.vmax, p.fvmax))
        fp = _fp(lgrid, *_fp_args(p.lmax, p.fpmax))
        assert np.array_equal(fl, fl_curve(lgrid, p.lmin, p.lmax))
        assert np.array_equal(fv, fv_curve(vgrid, p.vmax, p.fvmax))
        assert np.array_equal(fp, fp_curve(lgrid, p.lmax, p.fpmax))
        ref_fl, _, ref_fp = piecewise_reference(lgrid, 0.0, p)
        ref_fv = piecewise_reference(1.0, vgrid, p)[1]
        np.testing.assert_allclose(fl, ref_fl, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(fv, ref_fv, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(fp, ref_fp, rtol=1e-12, atol=1e-12)

    @given(p=valid_params)
    @settings(max_examples=200, deadline=None)
    def test_exact_values_hold_for_every_parameter_set(self, p):
        assert fl_curve(1.0, p.lmin, p.lmax) == 1.0
        assert fv_curve(0.0, p.vmax, p.fvmax) == 1.0
        outside = np.concatenate([np.linspace(p.lmin - 1.0, p.lmin, 200),
                                  np.linspace(p.lmax, p.lmax + 1.0, 200)])
        assert np.all(np.asarray(fl_curve(outside, p.lmin, p.lmax)) == 0.0)
        assert np.all(np.asarray(fp_curve(np.linspace(0.0, 1.0, 501), p.lmax, p.fpmax)) == 0.0)
        assert np.all(np.asarray(fv_curve(np.linspace(-3.0, -1.0, 50) * p.vmax,
                                          p.vmax, p.fvmax)) == 0.0)

    @given(p=valid_params, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_plant_gain_bias_is_the_public_curves(self, p, data):
        geom = MuscleGeometry(l0=0.2, lt=0.15, f0=data.draw(st.floats(0.1, 100.0)))
        plant = plant_with(geom, p)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        norm_len = rng.uniform(p.lmin - 0.5, p.lmax + 0.5, (50, 4))
        norm_vel = rng.uniform(-2.0 * p.vmax, 2.0 * p.vmax, (50, 4))
        gain, bias = _gain_bias(plant, norm_len, norm_vel)
        fl, fv, fp = flv(norm_len, norm_vel, p)
        assert np.array_equal(gain, -geom.f0 * fl * fv)
        assert np.array_equal(bias, -geom.f0 * fp)


def with_neighbours(points, width):
    """``points``, both signed zeros and each point's two floating-point
    neighbours, plus ``width`` evenly spaced values across their range."""
    points = np.asarray(points, dtype=float)
    grid = np.unique(np.concatenate([
        points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf),
        np.linspace(points.min(), points.max(), width)]))
    # np.unique keeps one of two equal zeros.
    return np.concatenate([grid[grid != 0.0], [0.0, -0.0]])


SPLIT_PARAMS = [
    MuscleParams(),
    MuscleParams(lmin=0.3, lmax=2.2, vmax=4.0, fpmax=0.0, fvmax=1.0),
    MuscleParams(lmin=0.05, lmax=1.05, vmax=0.1, fpmax=5.0, fvmax=2.5),
]


class TestSplitLaws:
    """Each law split at its clamp keeps the bits of its unsplit kernel
    (``tests/step_oracle.py``), breakpoints, edges and signed zeros included."""

    @staticmethod
    def grids(p):
        lengths = with_neighbours(
            [p.lmin - 0.5, p.lmin, 0.5 * (1.0 + p.lmin), 1.0, 0.5 * (1.0 + p.lmax), p.lmax,
             p.lmax + 0.5], 20001)
        plateau = p.vmax * (p.fvmax - 1.0)
        vels = with_neighbours(
            [-2.0 * p.vmax, -p.vmax, plateau, p.vmax, 2.0 * p.vmax], 20001)
        return lengths, vels

    @pytest.mark.parametrize("p", SPLIT_PARAMS)
    def test_curves_keep_their_bits(self, p):
        lengths, vels = self.grids(p)
        pairs = (
            (fl_curve(lengths, p.lmin, p.lmax),
             step_oracle.fl(lengths, *step_oracle.fl_args(p.lmin, p.lmax))),
            (fv_curve(vels, p.vmax, p.fvmax),
             step_oracle.fv(vels, *step_oracle.fv_args(p.vmax, p.fvmax))),
            (fp_curve(lengths, p.lmax, p.fpmax),
             step_oracle.fp(lengths, *step_oracle.fp_args(p.lmax, p.fpmax))),
        )
        for curve, reference in pairs:
            assert curve.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("p", SPLIT_PARAMS)
    def test_gain_bias_keeps_its_bits(self, p):
        plant = plant_with(MuscleGeometry(l0=0.2, lt=0.15, f0=3.0), p)
        lengths, vels = self.grids(p)
        rng = np.random.default_rng(4)
        norm_len = rng.permutation(np.resize(lengths, 4 * 6000)).reshape(-1, 4)
        norm_vel = rng.permutation(np.resize(vels, 4 * 6000)).reshape(-1, 4)
        for ours, reference in zip(_gain_bias(plant, norm_len, norm_vel),
                                   step_oracle.gain_bias(plant, norm_len, norm_vel)):
            assert ours.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("taus", [(0.01, 0.04, 0.005), (0.02, 0.02, 0.005),
                                      (0.05, 0.01, 0.02)])
    @pytest.mark.parametrize("dt", [0.0005, 0.002, 10.0])
    def test_activation_step_keeps_its_bits(self, taus, dt):
        act = with_neighbours([0.0, 0.25, 0.5, 1.0], 301)
        act = act[(act >= 0.0) & (act <= 1.0)][:, None]
        # Control errors at and around the blend window's edges.
        ctrl = np.clip(with_neighbours(
            [0.0, 0.5 - 0.5 * taus[2], 0.5, 0.5 + 0.5 * taus[2], 1.0], 301), 0.0, 1.0)
        ours = step_activation(act, ctrl, dt, *taus)
        reference = step_oracle.step_activation(act, ctrl, np.asarray(dt), *map(np.asarray, taus))
        assert ours.tobytes() == reference.tobytes()

    def test_smoothstep_keeps_its_bits(self):
        x = with_neighbours([-1.0, 0.0, 0.5, 1.0, 2.0], 20001)
        assert smoothstep(x).tobytes() == step_oracle.smoothstep(x).tobytes()


class TestGainBias:
    params = MuscleParams()
    plant = plant_with(MuscleGeometry(l0=1.0, lt=0.0, f0=2.0), params)

    def gain_bias(self, norm_len, norm_vel):
        return _gain_bias(self.plant, np.full(4, norm_len), np.full(4, norm_vel))

    def test_optimum(self):
        gain, bias = self.gain_bias(1.0, 0.0)
        assert gain == pytest.approx(np.full(4, -2.0))
        assert np.all(bias == 0.0)

    def test_zero_gain_outside_active_range(self):
        gain, _ = self.gain_bias(self.params.lmin, 0.0)
        assert np.all(gain == 0.0)

    def test_passive_bias_at_lmax(self):
        _, bias = self.gain_bias(self.params.lmax, 0.0)
        assert bias == pytest.approx(np.full(4, -2.0 * self.params.fpmax))  # -2.6 with fpmax 1.3

    def test_never_positive(self):
        rng = np.random.default_rng(0)
        lengths = rng.uniform(0.0, 2.5, (200, 1))
        vels = rng.uniform(-4.0, 4.0, (200, 1))
        gain, bias = _gain_bias(self.plant, lengths, vels)
        assert gain.shape == bias.shape == (200, 4)
        assert np.all(gain <= 0.0)
        assert np.all(bias <= 0.0)


class TestActuatorForce:
    """Tension ``gain * act + bias`` at the plant's gain and bias."""

    params = MuscleParams()
    plant = plant_with(MuscleGeometry(l0=1.0, lt=0.0, f0=2.0), params)

    def force(self, norm_len, norm_vel, act):
        gain, bias = _gain_bias(self.plant, np.full(4, norm_len), np.full(4, norm_vel))
        return gain * act + bias

    def test_full_activation(self):
        assert self.force(1.0, 0.0, 1.0) == pytest.approx(np.full(4, -2.0))

    def test_zero_activation_no_passive(self):
        assert np.all(self.force(1.0, 0.0, 0.0) == 0.0)

    def test_linear_in_activation(self):
        assert self.force(1.0, 0.0, 0.5) == pytest.approx(np.full(4, -1.0))

    def test_activation_out_of_range_rejected(self):
        # Forces are evaluated at activations from a checked state or from
        # the activation step, which clamps to [0, 1].
        q = np.zeros(self.plant.njoints)
        for act in (1.5, -0.1, np.nan):
            with pytest.raises(PlantError, match="activations"):
                PlantState(q=q, qdot=q, act=np.full(4, act))
        assert step_activation(0.99, 1.0, 10.0, 0.01, 0.04, 0.005) == 1.0
        assert step_activation(0.01, 0.0, 10.0, 0.01, 0.04, 0.005) == 0.0

    @given(
        norm_len=st.floats(-0.5, 3.0),
        norm_vel=st.floats(-5.0, 5.0),
        act=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_affine_decomposition_is_exact(self, norm_len, norm_vel, act):
        gain, bias = _gain_bias(self.plant, np.full(4, norm_len), np.full(4, norm_vel))
        fl, fv, fp = flv(norm_len, norm_vel, self.params)
        force = self.force(norm_len, norm_vel, act)
        assert np.all(force == -2.0 * fl * fv * act + -2.0 * fp)
        assert np.all(force <= 0.0)


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

    @pytest.mark.parametrize("cls, field", [(MuscleParams, "tau_act"), (MuscleParams, "scale"),
                                            (MuscleParams, "force_override"),
                                            (MuscleGeometry, "l0"), (MuscleGeometry, "lt")])
    @pytest.mark.parametrize("value", [True, False, "0.02", None, np.bool_(True)])
    def test_field_that_is_not_a_number_is_named(self, cls, field, value):
        # True used to be taken as 1, and "0.02" failed in math.isfinite
        # without the field's name.
        kwargs = {"l0": 0.1, "lt": 0.2, "f0": 1.0} if cls is MuscleGeometry else {}
        kwargs[field] = value
        message = f"{field} must be a finite number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**kwargs)

    def test_integer_and_numpy_fields_are_numbers(self):
        assert MuscleParams(scale=20, tau_act=np.float32(0.25)) == MuscleParams(scale=20.0,
                                                                                tau_act=0.25)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            MuscleGeometry(l0=0.0, lt=0.0, f0=1.0)
        with pytest.raises(ValueError):
            MuscleGeometry(l0=1.0, lt=-0.1, f0=1.0)
        with pytest.raises(ValueError):
            MuscleGeometry(l0=1.0, lt=0.0, f0=0.0)
