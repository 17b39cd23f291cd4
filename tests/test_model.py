import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridlab.errors import NotSPD, ShapeMismatch, ValidationError
from hybridlab.model import (COEFFICIENT_REGISTRY, ControlledModelSpec, DelaySpec,
                             build_controlled_model, build_delay_free_model,
                             check_bounded_at_zero, check_dissipativity_linear,
                             check_dissipativity_sampled, check_lipschitz_sampled,
                             registry_model, sawtooth_delay)
from hybridlab.switching import Generator, make_stream


def two_state():
    return Generator(np.array([[-1.0, 1.0], [2.0, -2.0]]))


def scalar_spec(gain=-2.0, rho=0.1):
    return ControlledModelSpec(
        dim=1, noise_dim=1,
        h=lambda j, x: x,
        sigma=lambda j, x: 0.5 * x[..., None],
        gains=[np.array([[gain]]), np.array([[gain]])],
        rho=rho,
    )


# --- sawtooth delay ---

def test_sawtooth_values():
    assert sawtooth_delay(0.25, 0.1) == pytest.approx(0.05)
    assert sawtooth_delay(0.5, 0.125) == 0.0  # exact interval endpoint
    # floor semantics below zero: floor(-0.3) = -1
    assert sawtooth_delay(-0.03, 0.1) == pytest.approx(0.07)


@given(t=st.floats(-50.0, 50.0), rho=st.floats(0.01, 1.0))
@settings(max_examples=100, deadline=None)
def test_sawtooth_range_and_period(t, rho):
    d = sawtooth_delay(t, rho)
    assert 0.0 <= d < rho or d == pytest.approx(rho)
    # rho-periodic up to float rounding at interval endpoints
    gap = abs(sawtooth_delay(t + rho, rho) - d)
    assert min(gap, abs(rho - gap)) < 1e-9


def test_delay_spec_variants():
    assert DelaySpec(variant="none").delay_at(3.0) == 0.0
    assert DelaySpec(variant="constant", rho=0.2).delay_at(3.0) == 0.2
    tab = DelaySpec(variant="tabulated", rho=0.5,
                    table_times=np.array([0.0, 1.0]), table_values=np.array([0.0, 0.5]))
    assert tab.delay_at(0.5) == pytest.approx(0.25)


def test_delay_spec_validation():
    with pytest.raises(ValidationError):
        DelaySpec(variant="nope")
    with pytest.raises(ValidationError):
        DelaySpec(variant="constant", rho=1.5)
    with pytest.raises(ValidationError):
        DelaySpec(variant="none", rho=0.1)
    with pytest.raises(ValidationError):
        DelaySpec(variant="tabulated", rho=0.1,
                  table_times=np.array([0.0, 1.0]), table_values=np.array([0.0, 0.5]))


# --- controlled models ---

def test_controlled_drift_composition():
    m = build_controlled_model(scalar_spec(), two_state())
    # f = h(x) + A y = 1 + (-2)(3) = -5
    assert m.drift(0.0, 1, np.array([1.0]), np.array([3.0]))[0] == pytest.approx(-5.0)
    assert m.delay.variant == "sawtooth"


def test_zero_gain_reduces_to_uncontrolled():
    m = build_controlled_model(scalar_spec(gain=0.0), two_state())
    x, y = np.array([1.3]), np.array([-4.0])
    assert m.drift(0.0, 1, x, y)[0] == pytest.approx(1.3)


def test_delay_free_companion_reads_current_state():
    m = build_delay_free_model(scalar_spec(), two_state())
    x, y = np.array([1.0]), np.array([3.0])
    # companion ignores y: f = x + (-2) x = -1
    assert m.drift(0.0, 1, x, y)[0] == pytest.approx(-1.0)
    assert m.delay.variant == "none"


def test_gain_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ControlledModelSpec(dim=2, noise_dim=1, h=lambda j, x: x,
                            sigma=lambda j, x: np.zeros((2, 1)),
                            gains=[np.zeros((1, 1)), np.zeros((1, 1))], rho=0.1)


def test_gain_count_mismatch():
    spec = ControlledModelSpec(dim=1, noise_dim=1, h=lambda j, x: x,
                               sigma=lambda j, x: np.zeros(x.shape + (1,)),
                               gains=[np.array([[-2.0]])], rho=0.1)
    with pytest.raises(ShapeMismatch):
        build_controlled_model(spec, two_state())


# --- sampled checkers ---

def test_lipschitz_linear_scalar():
    m = build_controlled_model(scalar_spec(gain=2.0), two_state())
    # drift x + 2y: quotient sup is max(|1|, |2|) = 2, never above |1| + |2|
    lf, lg = check_lipschitz_sampled(m, 2000, 5.0, make_stream(0, 0))
    assert lf <= 3.0 + 1e-9
    assert 1.8 <= lf <= 2.0 + 1e-9
    assert lg <= 0.5 + 1e-9


def test_lipschitz_constant_drift_is_zero():
    m = registry_model("ou", Generator(np.array([[0.0]])))
    m = type(m)(dim=1, noise_dim=1, drift=lambda t, j, x, y: np.ones(1),
                diffusion=m.diffusion, delay=m.delay, generator=m.generator)
    lf, _ = check_lipschitz_sampled(m, 500, 2.0, make_stream(1, 0))
    assert lf == 0.0


def test_lipschitz_quadratic_grows_with_radius():
    g = Generator(np.array([[0.0]]))
    def quad(t, j, x, y):
        return x**2
    def zero(t, j, x, y):
        return np.zeros(np.shape(x) + (1,))
    m = registry_model("ou", g)
    m = type(m)(dim=1, noise_dim=1, drift=quad, diffusion=zero,
                delay=m.delay, generator=g)
    small, _ = check_lipschitz_sampled(m, 2000, 1.0, make_stream(2, 0))
    large, _ = check_lipschitz_sampled(m, 2000, 10.0, make_stream(2, 0))
    assert large > 2.0 * small


def test_bounded_at_zero_sin():
    g = Generator(np.array([[0.0]]))
    m = registry_model("ou", g)
    m = type(m)(dim=1, noise_dim=1, drift=lambda t, j, x, y: np.array([np.sin(t)]),
                diffusion=m.diffusion, delay=m.delay, generator=g)
    sup = check_bounded_at_zero(m, np.linspace(-10, 10, 4001))[1]
    assert sup[0] <= 1.0 + 1e-12
    assert sup[0] > 0.999


def test_bounded_at_zero_flags_growth():
    g = Generator(np.array([[0.0]]))
    m = registry_model("ou", g)
    m = type(m)(dim=1, noise_dim=1, drift=lambda t, j, x, y: np.array([t]),
                diffusion=m.diffusion, delay=m.delay, generator=g)
    small = check_bounded_at_zero(m, np.linspace(-1, 1, 21))[1][0]
    large = check_bounded_at_zero(m, np.linspace(-100, 100, 21))[1][0]
    assert large > 50 * small


def test_checkers_take_batched_coefficients():
    # the same planar coefficients written by column index, as the batched
    # contract allows, and as matrix products that also take a single point
    A = np.array([[-1.0, 0.0], [0.3, -2.0]])
    B = np.array([[0.0, 0.5], [0.0, 0.0]])

    def by_column(t, j, x, y):
        return np.stack([-x[:, 0] + 0.5 * y[:, 1] + np.sin(t[:, 0]),
                         0.3 * x[:, 0] - 2.0 * x[:, 1]], axis=1)

    def by_matrix(t, j, x, y):
        return x @ A.T + y @ B.T + np.sin(t) * np.array([1.0, 0.0])

    def diffusion(t, j, x, y):
        return 0.2 * np.asarray(x)[..., None]

    g = two_state()
    results = []
    grid = np.linspace(-3, 3, 61)
    for drift in (by_column, by_matrix):
        m = registry_model("ou", g)
        m = type(m)(dim=2, noise_dim=1, drift=drift, diffusion=diffusion,
                    delay=m.delay, generator=g)
        results.append((check_lipschitz_sampled(m, 500, 2.0, make_stream(7, 0)),
                        check_bounded_at_zero(m, grid),
                        check_dissipativity_sampled(m, [np.eye(2)] * 2, 500, 2.0,
                                                    make_stream(8, 0))))
    (lip_c, zero_c, diss_c), (lip_m, zero_m, diss_m) = results
    assert np.allclose(lip_c, lip_m, rtol=1e-12)
    assert zero_c.keys() == zero_m.keys()
    for j in zero_c:
        assert np.allclose(zero_c[j], zero_m[j], rtol=1e-12)
        assert zero_c[j][0] == pytest.approx(np.max(np.abs(np.sin(grid))), abs=1e-12)
    assert diss_c == pytest.approx(diss_m, rel=1e-12)


# --- dissipativity ---

def test_certificate_single_mode():
    g = Generator(np.array([[0.0]]))
    out = check_dissipativity_linear([np.array([[1.0]])], [np.array([[-2.0]])],
                                     [[np.array([[0.5]])]], g, [np.eye(1)])
    # M = 2(1 - 2) + 0.25 = -1.75
    assert out.certified
    assert out.beta == pytest.approx(1.75, abs=1e-12)
    assert out.certificate.beta == out.beta


def test_certificate_two_modes_equal_weights():
    g = two_state()
    F = [np.array([[1.0]])] * 2
    A = [np.array([[-2.0]])] * 2
    G = [[np.array([[0.5]])]] * 2
    out = check_dissipativity_linear(F, A, G, g, [np.eye(1), np.eye(1)])
    # equal weights cancel the switching term (rows sum to zero)
    assert out.beta == pytest.approx(1.75, abs=1e-12)


def test_certificate_refutes_uncontrolled():
    g = Generator(np.array([[0.0]]))
    out = check_dissipativity_linear([np.array([[1.0]])], [np.array([[0.0]])],
                                     [[np.array([[0.0]])]], g, [np.eye(1)])
    assert not out.certified
    assert out.beta == pytest.approx(-2.0, abs=1e-12)
    assert out.certificate is None


def test_certificate_rejects_bad_weight():
    g = Generator(np.array([[0.0]]))
    with pytest.raises(NotSPD):
        check_dissipativity_linear([np.array([[1.0]])], [np.array([[-2.0]])],
                                   [[np.array([[0.5]])]], g, [np.array([[-1.0]])])


def test_sampled_matches_certificate():
    m = build_delay_free_model(scalar_spec(), two_state())
    est = check_dissipativity_sampled(m, [np.eye(1), np.eye(1)], 2000, 3.0,
                                      make_stream(5, 0))
    assert est >= 1.75 - 1e-9
    assert est <= 1.75 + 1e-6


def test_sampled_cubic_lower_bound():
    g = Generator(np.array([[0.0]]))
    m = registry_model("cubic", g)
    est = check_dissipativity_sampled(m, [np.eye(1)], 2000, 4.0, make_stream(6, 0))
    # (x - y)(f(x) - f(y)) <= -(x - y)^2 pointwise for -x^3 - x
    assert est >= 2.0 - 1e-9


def test_registry_rejects_unknown():
    with pytest.raises(ValidationError):
        registry_model("mystery", two_state())
    assert set(COEFFICIENT_REGISTRY) == {"cubic", "ou"}
