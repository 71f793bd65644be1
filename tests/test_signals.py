from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from cablemass import signals
from cablemass.cli import PRESETS
from cablemass.model import build_system
from cablemass.signals import (InputSpec, InvalidInput, breakpoints,
                               eval_input, eval_input_derivative,
                               input2_frequencies, input_preset, resolve_input,
                               square_wave)
from conftest import EXAMPLE1, schur_system


class TestEvalInput:
    def test_input1_at_zero(self):
        assert eval_input(input_preset("input1"), 0.0) == 0.0

    def test_input1_quarter_period(self):
        # 0.1 sin(0.2 pi 2.5) = 0.1 sin(pi/2)
        assert eval_input(input_preset("input1"), 2.5) == pytest.approx(0.1)

    def test_input4_quarter_period(self):
        assert eval_input(input_preset("input4"), 2.5) == pytest.approx(0.1)

    def test_input4_value_set(self):
        spec = input_preset("input4")
        t = np.linspace(0.0, 40.0, 801)
        vals = eval_input(spec, t)
        assert np.all(np.isin(vals, (0.1, 0.0, -0.1)))
        # period 10: first sign change after t=5
        assert eval_input(spec, 7.5) == pytest.approx(-0.1)
        # sin is exactly zero only at t=0 in floating point
        assert eval_input(spec, 0.0) == 0.0

    def test_square_wave_definition(self):
        assert square_wave(1.0) == 1.0
        assert square_wave(-1.0) == -1.0
        assert square_wave(0.0) == 0.0

    def test_input3_amplitude_bound(self, rng):
        spec = InputSpec(kind="input3", scale=2.0)
        t = rng.uniform(0.0, 50.0, size=200)
        assert np.all(np.abs(eval_input(spec, t)) <= 2.0 * (0.05 + 0.05) + 1e-15)

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_input3_pinned(self, scale):
        # the arithmetic of input3's former default constants, written out
        c1, c2, m, nfreq = 0.05, 0.05, 1.0, 2.0
        t = np.linspace(0.0, 50.0, 401)
        spec = InputSpec(kind="input3", scale=scale)
        np.testing.assert_array_equal(
            eval_input(spec, t),
            scale * (c1 * np.sin(m * t) + c2 * np.cos(nfreq * t)))
        np.testing.assert_array_equal(
            eval_input_derivative(spec, t),
            scale * (c1 * m * np.cos(m * t) - c2 * nfreq * np.sin(nfreq * t)))

    def test_input2_requires_resolution(self):
        with pytest.raises(ValueError):
            eval_input(input_preset("input2"), 1.0)

    def test_input2_value(self):
        spec = InputSpec(kind="input2", a=2.0, b=5.0)
        t = 0.7
        assert eval_input(spec, t) == pytest.approx(
            0.02 * np.cos(2.0 * t) + 0.03 * np.cos(5.0 * t))

    def test_zero_input(self):
        assert eval_input(input_preset("zero"), 3.3) == 0.0

    def test_scale(self):
        spec = InputSpec(kind="input1", scale=0.5)
        assert eval_input(spec, 2.5) == pytest.approx(0.05)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            InputSpec(kind="sawtooth")

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            input_preset("input9")

    def test_negative_frequency_rejected(self):
        with pytest.raises(InvalidInput) as err:
            InputSpec(kind="input2", a=-1.0, b=1.0)
        assert err.value.field == "a"

    @pytest.mark.parametrize("given,unset", [({"a": 0.3}, "b"),
                                             ({"b": 1.7}, "a")],
                             ids=["a_only", "b_only"])
    def test_one_input2_frequency_rejected(self, given, unset):
        # resolve_input would otherwise overwrite the one that was set
        with pytest.raises(InvalidInput) as err:
            InputSpec(kind="input2", **given)
        assert err.value.field == unset


# one spec per kind, each with a non-unit scale
SPECS = (
    InputSpec(kind="input1", scale=0.7),
    InputSpec(kind="input2", a=0.3, b=1.7, scale=1.3),
    InputSpec(kind="input3", scale=2.0),
    InputSpec(kind="input4", scale=0.5),
    InputSpec(kind="zero", scale=3.0),
)
# the specs' test ids, kept from the kinds' earlier names so that a test
# keeps its id from run to run
SPEC_IDS = ("sine1", "eig_cos2", "sin_cos3", "square4", "zero")


class TestInputDerivative:
    # smooth points: none on a square-wave jump (t = 5k)
    T = np.array([0.3, 1.7, 3.2, 7.1, 13.9, 42.2, 88.8])

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_matches_central_difference(self, spec):
        h = 1e-5
        fd = (eval_input(spec, self.T + h) - eval_input(spec, self.T - h)) \
            / (2.0 * h)
        np.testing.assert_allclose(eval_input_derivative(spec, self.T), fd,
                                   rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_scale_applied(self, spec):
        unit = eval_input_derivative(replace(spec, scale=1.0), self.T)
        np.testing.assert_array_equal(eval_input_derivative(spec, self.T),
                                      spec.scale * unit)

    def test_scalar_zero(self):
        assert eval_input_derivative(input_preset("zero"), 3.3) == 0.0
        assert eval_input_derivative(input_preset("input4"), 2.5) == 0.0

    def test_input2_requires_resolution(self):
        with pytest.raises(ValueError):
            eval_input_derivative(input_preset("input2"), 1.0)


class TestBreakpoints:
    SQUARE = input_preset("input4")

    def test_square_wave_jumps(self):
        np.testing.assert_array_equal(breakpoints(self.SQUARE, 0.0, 100.0),
                                      5.0 * np.arange(1, 20))

    def test_late_start(self):
        np.testing.assert_array_equal(breakpoints(self.SQUARE, 12.0, 33.0),
                                      [15.0, 20.0, 25.0, 30.0])

    def test_endpoints_on_jumps_not_listed(self):
        np.testing.assert_array_equal(breakpoints(self.SQUARE, 10.0, 30.0),
                                      [15.0, 20.0, 25.0])
        np.testing.assert_array_equal(breakpoints(self.SQUARE, 7.0, 25.0),
                                      [10.0, 15.0, 20.0])
        assert breakpoints(self.SQUARE, 5.0, 10.0).size == 0

    def test_jumps_are_sign_changes(self):
        cuts = breakpoints(self.SQUARE, 0.0, 100.0)
        left = eval_input(self.SQUARE, cuts - 1e-9)
        right = eval_input(self.SQUARE, cuts + 1e-9)
        np.testing.assert_array_equal(left, -right)
        assert np.all(left != 0.0)

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_only_the_square_wave_jumps(self, spec):
        expected = 19 if spec.kind == "input4" else 0
        assert breakpoints(spec, 0.0, 100.0).size == expected


class TestDominantModes:
    """The modes whose real parts ``input2_frequencies`` returns."""

    PAIRS = scipy.linalg.block_diag(  # eigenvalues -0.1 +/- 2i, -0.5 +/- 7i
        np.array([[-0.1, 2.0], [-2.0, -0.1]]),
        np.array([[-0.5, 7.0], [-7.0, -0.5]]))

    def test_real_spectrum(self):
        a = np.diag([-3.0, -1.0, -2.0])
        assert input2_frequencies(schur_system(a)) == \
            (pytest.approx(1.0), pytest.approx(2.0))

    def test_complex_pair_ordering(self):
        # the slower-decaying pair first, whatever the block order
        a = self.PAIRS[::-1, ::-1]
        assert input2_frequencies(schur_system(a)) == \
            (pytest.approx(0.1), pytest.approx(0.5))

    def test_one_representative_per_pair(self):
        # b is the real mode's, not the pair's conjugate member
        a = scipy.linalg.block_diag(self.PAIRS[:2, :2], [[-0.3]])
        assert input2_frequencies(schur_system(a)) == \
            (pytest.approx(0.1), pytest.approx(0.3))

    def test_one_pair_refused(self):
        with pytest.raises(ValueError, match="fewer than two"):
            input2_frequencies(schur_system(self.PAIRS[:2, :2]))


class TestInput2Frequencies:
    def test_reads_largest_real_parts(self):
        a = scipy.linalg.block_diag(
            np.array([[-0.1, 2.0], [-2.0, -0.1]]),
            np.array([[-0.5, 7.0], [-7.0, -0.5]]))
        assert input2_frequencies(schur_system(a)) == \
            (pytest.approx(0.1), pytest.approx(0.5))

    def test_example1_deterministic(self):
        sys = build_system(EXAMPLE1, 100)
        first = input2_frequencies(sys)
        second = input2_frequencies(sys)
        assert first == second
        assert all(np.isfinite(f) and f > 0.0 for f in first)

    def test_resolve_input_fills_frequencies(self):
        sys = build_system(EXAMPLE1, 40)
        spec = resolve_input(input_preset("input2"), sys)
        assert spec.a is not None and spec.b is not None
        # already-resolved specs pass through untouched
        assert resolve_input(spec, sys) is spec
        assert resolve_input(input_preset("input1"), sys).kind == "input1"


class TestPresetNames:
    def test_catalog(self):
        assert set(signals.KINDS) == \
            {"input1", "input2", "input3", "input4", "zero"}
        assert input_preset("input3").kind == "input3"


class TestKinds:
    """Every kind has its own signal: none falls through to zero."""

    @pytest.mark.parametrize("kind", signals.KINDS)
    def test_forced_unless_zero(self, kind):
        spec = resolve_input(InputSpec(kind=kind), build_system(EXAMPLE1, 10))
        forced = np.any(eval_input(spec, np.linspace(0.0, 20.0, 401)) != 0.0)
        assert forced == (kind != "zero")

    def test_preset_inputs_are_kinds(self):
        assert {p.input_name for p in PRESETS.values()} <= set(signals.KINDS)

    @pytest.mark.parametrize("make", [InputSpec, input_preset],
                             ids=["InputSpec", "input_preset"])
    def test_old_name_refused(self, make):
        # input4's earlier name is no kind
        with pytest.raises(InvalidInput) as err:
            make("square4")
        assert err.value.field == "kind"
