import ast
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spikekit
from spikekit.errors import ConfigError, DimensionError, NumericError
from spikekit.neurons import (
    MODELS,
    NeuronParams,
    NeuronState,
    sigmoid,
    sigmoid_prime,
    step,
    surrogate_window,
)

from step_oracles import masked_sigmoid

# Signed zeros, far tails and subnormals of both signs.
SIGMOID_EDGES = [0.0, -0.0, 1e3, -1e3, 800.0, -800.0, 5e-324, -5e-324, 1e-310, -1e-310,
                 2.2250738585072014e-308, -2.2250738585072014e-308]


class TestSigmoid:
    def test_reference_values(self):
        assert sigmoid(0.0) == 0.5
        npt.assert_allclose(sigmoid(np.log(3.0)), 0.75, rtol=1e-14)

    def test_symmetry_and_extremes(self):
        z = np.linspace(-40, 40, 201)
        npt.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)
        # Stable far into the tails; these overflow a naive exp(-z) form.
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6),
                        elements=st.floats(allow_nan=False) | st.sampled_from(SIGMOID_EDGES)))
    def test_is_the_masked_form_byte_for_byte(self, z):
        got, want = sigmoid(z), masked_sigmoid(z)
        if z.ndim == 0:
            assert type(got) is float and type(sigmoid(float(z))) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert np.float64(sigmoid(float(z))).tobytes() == np.float64(want).tobytes()
        else:
            assert got.dtype == np.float64 and got.shape == z.shape
            assert got.tobytes() == want.tobytes()

    def test_derivative_identity(self):
        z = np.linspace(-8, 8, 101)
        s = sigmoid(z)
        npt.assert_allclose(sigmoid_prime(z), s * (1 - s), rtol=1e-14)


class TestNeuronParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            NeuronParams(model="relu")
        with pytest.raises(ConfigError):
            NeuronParams(leak=1.5)
        with pytest.raises(ConfigError):
            NeuronParams(leak=-0.01)
        with pytest.raises(ConfigError):
            NeuronParams(v_th=0.0)
        with pytest.raises(ConfigError):
            NeuronParams(surrogate_width=0.0)

    @pytest.mark.parametrize("field", ["v_th", "surrogate_width", "plif_raw"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            NeuronParams(model="plif", **{field: value})

    @pytest.mark.parametrize("field", ["v_th", "surrogate_width", "plif_raw"])
    def test_int_past_the_float_range_rejected(self, field):
        # A checkpoint's JSON may hold such an integer; it must not raise OverflowError.
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            NeuronParams(model="plif", **{field: 10**400})

    def test_effective_leak(self):
        assert NeuronParams(model="lif", leak=0.3).effective_leak() == 0.3
        assert NeuronParams(model="if", leak=0.3).effective_leak() == 1.0
        assert NeuronParams(model="plif", plif_raw=0.0).effective_leak() == 0.5
        raw = 1.7
        npt.assert_allclose(NeuronParams(model="plif", plif_raw=raw).effective_leak(),
                            float(sigmoid(raw)), rtol=1e-15)


class TestLifStep:
    """The update is u' = leak * u * (1 - o) + x, then fire at u' >= v_th."""

    def test_hand_computed_sequence(self):
        p = NeuronParams(model="lif", v_th=1.0, leak=0.5)
        s = NeuronState.zeros(3)
        s = step(s, np.array([0.4, 1.0, 1.6]), p)
        npt.assert_array_equal(s.u, [0.4, 1.0, 1.6])
        npt.assert_array_equal(s.o, [0.0, 1.0, 1.0])
        # Fired neurons reset: their previous potential does not carry over.
        s = step(s, np.array([0.5, 0.5, 0.5]), p)
        npt.assert_array_equal(s.u, [0.7, 0.5, 0.5])
        npt.assert_array_equal(s.o, [0.0, 0.0, 0.0])

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(21)
        p = NeuronParams(model="lif", v_th=1.0, leak=0.5)
        for _ in range(200):
            u = rng.normal(size=7)
            o = (rng.random(7) < 0.5).astype(float)
            x = rng.normal(size=7)
            got = step(NeuronState(u=u, o=o), x, p)
            expect_u = 0.5 * u * (1.0 - o) + x
            npt.assert_array_equal(got.u, expect_u)
            npt.assert_array_equal(got.o, (expect_u >= 1.0).astype(float))

    def test_spikes_are_binary(self):
        rng = np.random.default_rng(2)
        p = NeuronParams()
        s = NeuronState.zeros((4, 5))
        for _ in range(30):
            s = step(s, rng.normal(size=(4, 5)), p)
            assert np.all((s.o == 0.0) | (s.o == 1.0))

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericError):
            step(NeuronState.zeros(2), np.array([1.0, np.nan]), NeuronParams())


class TestModelVariants:
    def test_if_ignores_configured_leak(self):
        p = NeuronParams(model="if", leak=1.0)
        s = NeuronState(u=np.array([0.8]), o=np.array([0.0]))
        s = step(s, np.array([0.1]), p)
        npt.assert_array_equal(s.u, [0.9])

    def test_if_equals_lif_with_unit_leak(self):
        rng = np.random.default_rng(4)
        p_if = NeuronParams(model="if", leak=1.0)
        p_lif = NeuronParams(model="lif", leak=1.0)
        for _ in range(100):
            state = NeuronState(u=rng.normal(size=6), o=(rng.random(6) < 0.5).astype(float))
            x = rng.normal(size=6)
            a = step(state, x, p_if)
            b = step(state, x, p_lif)
            assert a.u.tobytes() == b.u.tobytes()
            assert a.o.tobytes() == b.o.tobytes()

    def test_plif_uses_logistic_of_raw(self):
        raw = -0.4
        p = NeuronParams(model="plif", plif_raw=raw)
        u = np.array([0.9])
        got = step(NeuronState(u=u, o=np.array([0.0])), np.array([0.0]), p)
        npt.assert_allclose(got.u, float(sigmoid(raw)) * 0.9, rtol=1e-15)

    def test_aia_forward_identical_to_lif(self):
        rng = np.random.default_rng(9)
        p = NeuronParams(model="lif")
        p_aia = NeuronParams(model="aia")
        for _ in range(100):
            state = NeuronState(u=rng.normal(size=5), o=(rng.random(5) < 0.5).astype(float))
            x = rng.normal(size=5)
            a = step(state, x, p_aia)
            b = step(state, x, p)
            assert a.u.tobytes() == b.u.tobytes()
            assert a.o.tobytes() == b.o.tobytes()

    def test_cached_scales_drive_per_neuron(self):
        p = NeuronParams(model="cached-aia")
        beta = np.array([2.0, 0.5])
        got = step(NeuronState.zeros(2), np.array([0.6, 0.6]), p, beta)
        npt.assert_array_equal(got.u, [1.2, 0.3])
        npt.assert_array_equal(got.o, [1.0, 0.0])

    def test_cached_unit_beta_is_bitwise_lif(self):
        rng = np.random.default_rng(13)
        p = NeuronParams(model="cached-aia")
        p_lif = NeuronParams(model="lif")
        beta = np.ones(8)
        for _ in range(100):
            state = NeuronState(u=rng.normal(size=(3, 8)), o=(rng.random((3, 8)) < 0.5).astype(float))
            x = rng.normal(size=(3, 8))
            a = step(state, x, p, beta)
            b = step(state, x, p_lif)
            assert a.u.tobytes() == b.u.tobytes()

    def test_cached_beta_shape_checked(self):
        with pytest.raises(DimensionError):
            step(NeuronState.zeros(3), np.zeros(3), NeuronParams(model="cached-aia"), np.ones(4))


class TestDispatch:
    def test_routes_by_model_tag(self):
        rng = np.random.default_rng(17)
        state = NeuronState(u=rng.normal(size=4), o=np.zeros(4))
        x = rng.normal(size=4)
        for model in MODELS:
            p = NeuronParams(model=model, leak=1.0 if model == "if" else 0.5)
            beta = np.ones(4) if model == "cached-aia" else None
            got = step(state, x, p, beta)
            assert got.o.shape == (4,)

    def test_cached_requires_beta(self):
        with pytest.raises(ConfigError):
            step(NeuronState.zeros(2), np.zeros(2), NeuronParams(model="cached-aia"))

    def test_only_the_model_table_names_models(self):
        # MODEL_TABLE's rows are all that tells the models apart, so no other
        # module may decide anything by a model's name.
        named = []
        for path in sorted(Path(spikekit.__file__).parent.glob("*.py")):
            if path.name == "neurons.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and node.value in MODELS:
                    named.append(f"{path.name}:{node.lineno} {node.value!r}")
        assert named == []


class TestSurrogate:
    """The rectangular surrogate derivative: the window divided by its width."""

    def test_window_geometry(self):
        p = NeuronParams(v_th=1.0, surrogate_width=1.0)
        u = np.array([0.49, 0.5, 1.0, 1.5, 1.51])
        npt.assert_array_equal((surrogate_window(u, p) / p.surrogate_width), [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_height_scales_inversely_with_width(self):
        p = NeuronParams(v_th=1.0, surrogate_width=0.25)
        u = np.array([0.87, 0.88, 1.0, 1.12, 1.13])
        npt.assert_allclose((surrogate_window(u, p) / p.surrogate_width), [0.0, 4.0, 4.0, 4.0, 0.0])

    def test_window_integrates_to_one(self):
        # Riemann sum over a fine grid approaches 1 for any width.
        for width in (0.5, 1.0, 2.0):
            p = NeuronParams(v_th=1.0, surrogate_width=width)
            u = np.linspace(-3, 5, 160001)
            du = u[1] - u[0]
            total = (surrogate_window(u, p) / p.surrogate_width).sum() * du
            npt.assert_allclose(total, 1.0, atol=2e-4)
