import contextlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab import stieltjes
from spikelab.errors import DomainError, NumericalError, SubcriticalError
from spikelab.locallaw import divided_difference, solve_pi
from spikelab.spectra import esd, make_covariance
from spikelab.stieltjes import f_eval, find_w_plus, solve_m, theta_map

IDENTITY = make_covariance("identity", 10)
BULKS = {
    "identity-200": make_covariance("identity", 200),
    "toeplitz-800": make_covariance("toeplitz", 800, rho=0.2),
    "haar-300": make_covariance("haar", 300, seed=3, bounds=(0.5, 2.0)),
}
ISO = esd(IDENTITY)
TWO_ATOM = esd(make_covariance("diagonal", 2, entries=[1.0, 2.0]))


@contextlib.contextmanager
def counted_f_eval():
    """The w of every ``f_eval`` call the stieltjes solvers make in the block."""
    calls = []
    evaluate = stieltjes.f_eval

    def counting(*args):
        calls.append(args[0])
        return evaluate(*args)

    with mock.patch.object(stieltjes, "f_eval", counting):
        yield calls


@pytest.fixture
def f_eval_calls():
    with counted_f_eval() as calls:
        yield calls


@st.composite
def diagonal_entries(draw):
    """1-60 atoms in [1e-3, 1e3], each repeated 1-50 times, and sometimes a
    lone top atom above them all."""
    exps = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=59))
    counts = draw(st.lists(st.integers(1, 50), min_size=len(exps), max_size=len(exps)))
    entries = [10.0**e for e, c in zip(exps, counts) for _ in range(c)]
    if draw(st.booleans()):
        entries.append(10.0 ** draw(st.floats(max(exps), 3.0)))
    return entries


def mp_stieltjes(z, phi):
    """Quadratic-formula oracle for the isotropic fixed point:
    z m^2 + (z + 1 - phi) m + 1 = 0 on the branch with m -> -1/z."""
    b = z + 1.0 - phi
    return (-b + math.sqrt(b * b - 4.0 * z)) / (2.0 * z)


class TestFEval:
    def test_hand_value_isotropic(self):
        f0, f1, _ = f_eval(-0.5, ISO, 0.5)
        assert f0 == pytest.approx(3.0, abs=1e-14)
        assert f1 == pytest.approx(2.0, abs=1e-14)

    def test_two_atom_explicit_sum(self):
        w, phi = -0.25, 0.5
        f0, _, _ = f_eval(w, TWO_ATOM, phi)
        expected = -1.0 / w + phi * (0.5 * 1.0 / (1 + w) + 0.5 * 2.0 / (1 + 2 * w))
        assert f0 == pytest.approx(expected, abs=1e-14)

    def test_blowup_toward_zero(self):
        f0, _, _ = f_eval(-1e-12, ISO, 0.5)
        assert f0 > 1e11

    def test_pole_raises_naming_atom(self):
        with pytest.raises(DomainError, match="2.0"):
            f_eval(-0.5, TWO_ATOM, 0.5)

    @given(st.floats(min_value=-0.45, max_value=-0.05),
           st.floats(min_value=0.2, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_derivatives_match_finite_differences(self, w, phi):
        # five-point stencils: f' vanishes at the edge w_plus(phi), and a
        # three-point difference's O(step^2 f''') error is then larger than
        # rel=1e-6 of f' (e.g. w=-1/3, phi=0.470703125)
        step = 1e-4
        _, f1, f2 = f_eval(w, TWO_ATOM, phi)
        fm2, fm, f0, fp, fp2 = (f_eval(w + k * step, TWO_ATOM, phi)[0]
                                for k in (-2, -1, 0, 1, 2))
        assert f1 == pytest.approx((fm2 - 8 * fm + 8 * fp - fp2) / (12 * step), rel=1e-6)
        assert f2 == pytest.approx(
            (-fm2 + 16 * fm - 30 * f0 + 16 * fp - fp2) / (12 * step**2), rel=1e-5
        )


class TestEdge:
    @pytest.mark.parametrize("phi", [0.25, 0.5, 1.0])
    def test_isotropic_closed_form(self, phi):
        edge = find_w_plus(ISO, phi)
        assert edge.w_plus == pytest.approx(-1.0 / (1.0 + math.sqrt(phi)), abs=1e-12)
        assert edge.lambda_plus == pytest.approx((1.0 + math.sqrt(phi)) ** 2, abs=1e-12)

    def test_two_atom_residual_is_the_oracle(self):
        edge = find_w_plus(TWO_ATOM, 0.5)
        _, f1, f2 = f_eval(edge.w_plus, TWO_ATOM, 0.5)
        assert abs(f1) <= 1e-10 / edge.w_plus**2
        assert f2 > 0
        assert edge.f_second_at_w_plus == f2

    def test_sigma_tw_isotropic(self):
        # classical edge scale (1 + sqrt(phi)) (1 + 1/sqrt(phi))^(1/3)
        edge = find_w_plus(ISO, 1.0)
        assert edge.sigma_tw == pytest.approx(2.0 * 2.0 ** (1.0 / 3.0), rel=1e-12)

    def test_degenerate_rejected(self):
        zero = esd(make_covariance("diagonal", 1, entries=[0.0]))
        with pytest.raises(DomainError):
            find_w_plus(zero, 0.5)

    @pytest.mark.parametrize("name", sorted(BULKS))
    def test_few_evaluations(self, name, f_eval_calls):
        # the bracket's two ends, the Newton steps and the final residual
        edge = find_w_plus(esd(BULKS[name]), 0.5)
        assert len(f_eval_calls) <= 16
        for z in (edge.lambda_plus * (1.0 + 1e-6), edge.lambda_plus + 1.0,
                  10.0 * edge.lambda_plus):
            f_eval_calls.clear()
            solve_m(z, edge)
            assert len(f_eval_calls) <= 20

    @given(diagonal_entries(), st.floats(-3.0, 3.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_spectra(self, entries, log_phi):
        # spectra reaching both ends of (-1/sigma_1, 0): w_plus sits near the
        # pole for a small phi or a lone top atom, near 0 for a large phi
        nu = esd(make_covariance("diagonal", len(entries), entries=entries))
        phi = 10.0**log_phi
        # counted here: a function-scoped fixture trips hypothesis' health check
        with counted_f_eval() as calls:
            edge = find_w_plus(nu, phi)
        # Newton on g^(-1/2) - 1 leaves the top atom's pole in a few steps
        assert len(calls) <= 16
        w = edge.w_plus
        assert -1.0 / nu.top < w < 0.0
        assert abs(f_eval(w, nu, phi)[1]) <= 1e-10 / w**2
        zs = [edge.lambda_plus * (1.0 + d) + d for d in (1e-6, 1e-2, 1.0, 1e3)]
        ms = [solve_m(z, edge) for z in zs]
        for z, m in zip(zs, ms):
            assert w < m < 0.0
            assert abs(f_eval(m, nu, phi)[0] - z) <= 1e-12 * z
        assert np.all(np.diff(ms) > 0)


class TestSolveM:
    def test_round_trip_on_grid(self):
        edge = find_w_plus(TWO_ATOM, 0.5)
        ws = np.linspace(edge.w_plus + 1e-3, -1e-3, 50)
        for w in ws:
            z = f_eval(w, TWO_ATOM, 0.5)[0]
            assert abs(solve_m(z, edge) - w) <= 1e-10

    def test_against_quadratic_oracle(self):
        edge = find_w_plus(ISO, 0.5)
        for z in (4.0, 5.0, 7.5, 20.0):
            assert solve_m(z, edge) == pytest.approx(
                mp_stieltjes(z, 0.5), abs=1e-12
            )

    def test_large_z_asymptotics(self):
        edge = find_w_plus(ISO, 0.5)
        m = solve_m(1e6, edge)
        assert m == pytest.approx(-1e-6, rel=1e-5)

    def test_below_edge_rejected(self):
        edge = find_w_plus(ISO, 0.5)
        with pytest.raises(DomainError):
            solve_m(edge.lambda_plus - 0.1, edge)

    # m(lambda_plus + 0.5), m(lambda_plus + 2) and m(10) as the bisection
    # gave them when it ran its full 120 steps
    @pytest.mark.parametrize("nu, reference", [
        (ISO, (-0.3843007326226502, -0.23469326119387474, -0.10592363464399476)),
        (TWO_ATOM, (-0.24656185145049792, -0.17213051431468374, -0.11015929484493833)),
    ], ids=["isotropic", "two-atom"])
    def test_bisection_stops_at_the_ulp(self, nu, reference, f_eval_calls):
        edge = find_w_plus(nu, 0.5)
        for z, m_ref in zip((edge.lambda_plus + 0.5, edge.lambda_plus + 2.0, 10.0),
                            reference):
            f_eval_calls.clear()
            assert solve_m(z, edge) == pytest.approx(m_ref, rel=1e-14, abs=0)
            assert len(f_eval_calls) <= 64

    def test_monotone_in_z(self):
        edge = find_w_plus(TWO_ATOM, 0.7)
        zs = np.linspace(edge.lambda_plus + 0.1, edge.lambda_plus + 10, 40)
        ms = [solve_m(z, edge) for z in zs]
        assert np.all(np.diff(ms) > 0)


def m_divided_difference(z_k, z_j, edge):
    """m[z_k, z_j] through the Pi(z) that ``solve_pi`` solves at each z."""
    return divided_difference(solve_pi(IDENTITY, z_k, edge),
                              solve_pi(IDENTITY, z_j, edge))


class TestDividedDifference:
    def test_off_diagonal_matches_oracle(self):
        got = m_divided_difference(4.0, 5.0, find_w_plus(ISO, 0.5))
        expected = (mp_stieltjes(4.0, 0.5) - mp_stieltjes(5.0, 0.5)) / (4.0 - 5.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_diagonal_continuity(self):
        z, edge = 4.0, find_w_plus(ISO, 0.5)
        mprime = m_divided_difference(z, z, edge)
        near = m_divided_difference(z, z + 1e-6, edge)
        assert abs(near - mprime) <= 1e-4 * abs(mprime)

    def test_diagonal_spike_identity(self):
        # at a spike location theta, m'(theta) = 1 / (sigma~^2 theta')
        sigma_tilde = 6.25
        edge = find_w_plus(ISO, 0.5)
        theta, theta_prime = theta_map(sigma_tilde, edge)
        mprime = m_divided_difference(theta, theta, edge)
        assert mprime == pytest.approx(1.0 / (sigma_tilde**2 * theta_prime),
                                       rel=1e-10)


class TestThetaMap:
    def test_isotropic_closed_form(self):
        d2, phi = 5.25, 0.5
        theta, theta_prime = theta_map(1.0 + d2, find_w_plus(ISO, phi))
        assert theta == pytest.approx(1 + d2 + phi * (1 + 1 / d2), abs=1e-12)
        assert theta_prime == pytest.approx(1 - phi / d2**2, abs=1e-12)

    def test_strictly_increasing(self):
        edge = find_w_plus(TWO_ATOM, 0.5)
        grid = np.linspace(edge.threshold + 0.2, edge.threshold + 8, 30)
        thetas = [theta_map(s, edge)[0] for s in grid]
        assert np.all(np.diff(thetas) > 0)

    def test_derivative_matches_finite_difference(self):
        edge = find_w_plus(TWO_ATOM, 0.5)
        s = edge.threshold + 1.7
        step = 1e-5
        _, theta_prime = theta_map(s, edge)
        fd = (theta_map(s + step, edge)[0]
              - theta_map(s - step, edge)[0]) / (2 * step)
        assert theta_prime == pytest.approx(fd, rel=1e-6)

    def test_composition_with_f(self):
        # two independent code paths: theta(s) and f(-1/s)
        edge = find_w_plus(TWO_ATOM, 0.5)
        for s in (edge.threshold + 0.5, edge.threshold + 2.0, edge.threshold + 5.0):
            theta, _ = theta_map(s, edge)
            assert abs(theta - f_eval(-1.0 / s, TWO_ATOM, 0.5)[0]) <= 1e-12 * theta

    def test_approaches_edge_at_threshold(self):
        edge = find_w_plus(ISO, 0.5)
        theta, _ = theta_map(edge.threshold + 1e-5, edge)
        assert theta == pytest.approx(edge.lambda_plus, abs=1e-3)

    def test_subcritical_error_carries_threshold(self):
        edge = find_w_plus(ISO, 0.5)
        with pytest.raises(SubcriticalError) as err:
            theta_map(edge.threshold - 0.01, edge)
        assert err.value.threshold == pytest.approx(edge.threshold)

    @pytest.mark.parametrize("gap", [0.999e-10, 1.001e-10], ids=["inside", "outside"])
    def test_pole_guard_boundary(self, gap):
        # a bulk whose threshold sits 0.5e-10 above its top atom 1 admits a
        # supercritical sigma_tilde that close to the atom: within 1e-10
        # relative theta is refused, just outside it is computed
        edge = replace(find_w_plus(ISO, 0.5), w_plus=-1.0 / (1.0 + 0.5e-10))
        if gap < 1e-10:
            with pytest.raises(NumericalError, match="within 1e-10 relative"):
                theta_map(1.0 + gap, edge)
        else:
            assert np.isfinite(theta_map(1.0 + gap, edge)).all()

    def test_large_spike_asymptotics(self):
        theta, theta_prime = theta_map(1e8, find_w_plus(ISO, 0.5))
        assert theta / 1e8 == pytest.approx(1.0, rel=1e-6)
        assert theta_prime == pytest.approx(1.0, rel=1e-6)
