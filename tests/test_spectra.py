import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.errors import DomainError
from spikelab.spectra import (
    check_assumptions,
    esd,
    haar_orthogonal,
    make_covariance,
)
from spikelab.stieltjes import find_w_plus


def toeplitz3_eigenvalues():
    """Independent oracle for the 3x3 geometric matrix with ratio 0.1:
    the antisymmetric eigenvector gives 1 - 0.01; the two symmetric ones
    solve t^2 + 0.1 t - 2 = 0 with eigenvalue 1.01 + 0.1 t."""
    disc = math.sqrt(0.01 + 8.0)
    t_plus, t_minus = (-0.1 + disc) / 2.0, (-0.1 - disc) / 2.0
    return sorted([0.99, 1.01 + 0.1 * t_plus, 1.01 + 0.1 * t_minus], reverse=True)


class TestMakeCovariance:
    def test_identity(self):
        cov = make_covariance("identity", 200)
        assert np.all(cov.eigenvalues == 1.0)
        assert np.array_equal(cov.function(np.sqrt), np.eye(200))

    def test_toeplitz_matrix_entries(self):
        cov = make_covariance("toeplitz", 3, rho=0.1)
        expected = np.array([[1.0, 0.1, 0.01], [0.1, 1.0, 0.1], [0.01, 0.1, 1.0]])
        np.testing.assert_allclose(cov.matrix(), expected, atol=1e-15)

    def test_toeplitz_eigenvalues_against_quadratic(self):
        cov = make_covariance("toeplitz", 3, rho=0.1)
        np.testing.assert_allclose(cov.eigenvalues, toeplitz3_eigenvalues(),
                                   atol=1e-10)

    @given(dim=st.integers(1, 300),
           rho=st.one_of(st.just(0.0), st.floats(-0.95, 0.95, exclude_min=True,
                                                  exclude_max=True)))
    @settings(max_examples=40, deadline=None)
    def test_toeplitz_closed_form_matches_eigh(self, dim, rho):
        idx = np.arange(dim)
        mat = rho ** np.abs(idx[:, None] - idx[None, :])
        cov = make_covariance("toeplitz", dim, rho=rho)
        expected = np.linalg.eigh(mat)[0][::-1]
        np.testing.assert_allclose(cov.eigenvalues, expected, rtol=0,
                                   atol=1e-12 * expected[0])
        np.testing.assert_allclose(cov.matrix(), mat, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cov.basis.T @ cov.basis, np.eye(dim), rtol=0,
                                   atol=1e-12)

    def test_haar_rotated(self):
        cov = make_covariance("haar", 50, seed=11, bounds=(1.0, 1.5))
        assert cov.eigenvalues.min() >= 1.0 and cov.eigenvalues.max() <= 1.5
        basis = cov.basis
        assert np.abs(basis.T @ basis - np.eye(50)).max() < 1e-10

    def test_haar_column_statistics(self):
        m = 400
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
        q = haar_orthogonal(m, rng)
        col = q[:, 0]
        assert abs(col.mean()) <= 4.0 / math.sqrt(m)
        assert abs(col @ col - 1.0) <= 1e-12

    @pytest.mark.parametrize("recipe,kwargs", [
        ("toeplitz", {"rho": 0.1}),
        ("haar", {"seed": 3, "bounds": (0.5, 2.0)}),
        ("diagonal", {"entries": np.linspace(0.2, 3.0, 40)}),
    ])
    def test_reconstruction(self, recipe, kwargs):
        cov = make_covariance(recipe, 40, **kwargs)
        top = cov.eigenvalues[0]
        np.testing.assert_allclose(np.linalg.eigvalsh(cov.matrix())[::-1],
                                   cov.eigenvalues, rtol=0, atol=1e-12 * top)
        if cov.basis is not None:
            rebuilt = (cov.basis * cov.eigenvalues) @ cov.basis.T
            assert np.abs(rebuilt - cov.matrix()).max() <= 1e-9 * top
            assert np.array_equal(cov.root, cov.function(np.sqrt))
        root = cov.function(np.sqrt)
        assert np.abs(root @ root - cov.matrix()).max() <= 1e-10 * top

    def test_dense_non_psd_rejected(self):
        mat = np.diag([1.0, -0.5])
        with pytest.raises(DomainError, match="-0.5"):
            make_covariance("dense", 2, matrix=mat)

    def test_deterministic_given_seed(self):
        a = make_covariance("haar", 30, seed=9, bounds=(1.0, 2.0))
        b = make_covariance("haar", 30, seed=9, bounds=(1.0, 2.0))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.root, b.root)


# recipe -> strategy for its make_covariance keyword arguments at a given dim;
# every spectrum stays inside [0.1, 3] so f(Sigma) is well conditioned
RECIPE_PARAMS = {
    "identity": lambda dim: st.just({}),
    "diagonal": lambda dim: st.lists(st.floats(0.1, 3.0), min_size=dim,
                                     max_size=dim).map(lambda e: {"entries": e}),
    "toeplitz": lambda dim: st.floats(-0.8, 0.8).map(lambda r: {"rho": r}),
    "haar": lambda dim: st.builds(lambda a, b, seed: {"bounds": (a, b), "seed": seed},
                                  st.floats(0.1, 1.5), st.floats(1.5, 3.0),
                                  st.integers(0, 2**16)),
    "dense": lambda dim: st.integers(0, 2**16).map(lambda s: {"matrix": dense_psd(dim, s)}),
}

FUNCTIONS = {
    "sqrt": np.sqrt,
    "resolvent": lambda v: -1.0 / (1.7 * (1.0 - 0.3 * v)),
    "square": np.square,
    "log": np.log,
}


def dense_psd(dim, seed):
    a = np.random.default_rng(seed).standard_normal((dim, dim))
    return 0.2 * (a @ a.T) / dim + 0.1 * np.eye(dim)


class TestFunction:
    @pytest.mark.parametrize("recipe", sorted(RECIPE_PARAMS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_eigh_oracle(self, recipe, data):
        dim = data.draw(st.integers(1, 12))
        cov = make_covariance(recipe, dim, **data.draw(RECIPE_PARAMS[recipe](dim)))
        fn = FUNCTIONS[data.draw(st.sampled_from(sorted(FUNCTIONS)))]
        vals, vecs = np.linalg.eigh(cov.matrix())
        expected = (vecs * fn(vals)) @ vecs.T
        scale = max(np.abs(expected).max(), 1.0)
        np.testing.assert_allclose(cov.function(fn), expected, rtol=0,
                                   atol=1e-10 * scale)
        np.testing.assert_allclose(cov.diagonal(fn), np.diag(cov.function(fn)),
                                   rtol=0, atol=1e-12 * scale)

        # the linear maps agree with the dense matrices on a vector, a square
        # block and a non-square block (rows scaled, never columns)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        # V'x carries x' Sigma x as sum_i values_i (V'x)_i^2
        x = rng.standard_normal((dim, 3))
        np.testing.assert_allclose(
            cov.values @ cov.coordinates(x) ** 2, np.sum(x * (cov.matrix() @ x), axis=0),
            rtol=0, atol=1e-12 * dim * max(cov.eigenvalues[0], 1.0) * np.abs(x).max() ** 2)
        # and V (V'x) = x
        np.testing.assert_allclose(cov.from_coordinates(cov.coordinates(x)), x,
                                   rtol=0, atol=1e-12 * dim * np.abs(x).max())
        dense = {"apply": cov.function(fn), "matvec": cov.matrix(),
                 "sqrt_matmat": cov.function(np.sqrt)}
        for shape in [(dim,), (dim, dim), (dim, dim + 1)]:
            x = rng.standard_normal(shape)
            got = {"apply": cov.apply(fn, x), "matvec": cov.matvec(x),
                   "sqrt_matmat": cov.sqrt_matmat(x)}
            for name, mat in dense.items():
                want = mat @ x
                np.testing.assert_allclose(
                    got[name], want, rtol=0,
                    atol=1e-12 * dim * max(np.abs(mat).max(), 1.0) * np.abs(x).max(),
                    err_msg=f"{name} on shape {shape}")


class TestEsd:
    def test_identity_single_atom(self):
        nu = esd(make_covariance("identity", 100))
        assert nu.values.tolist() == [1.0]
        assert nu.weights.tolist() == [1.0]

    def test_diagonal_multiplicities(self):
        nu = esd(make_covariance("diagonal", 4, entries=[1.0, 1.0, 2.0, 2.0]))
        assert nu.values.tolist() == [1.0, 2.0]
        assert nu.weights.tolist() == [0.5, 0.5]

    def test_toeplitz_three_atoms(self):
        nu = esd(make_covariance("toeplitz", 3, rho=0.1))
        assert len(nu.values) == 3
        np.testing.assert_allclose(sorted(nu.values, reverse=True),
                                   toeplitz3_eigenvalues(), atol=1e-10)
        assert np.all(nu.weights == pytest.approx(1.0 / 3.0))

    @given(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_weights_sum_exactly_to_one(self, entries):
        nu = esd(make_covariance("diagonal", len(entries), entries=entries))
        total = sum(Fraction(int(m), len(entries)) for m in nu.multiplicities)
        assert total == 1
        assert abs(math.fsum(nu.weights) - 1.0) <= 1e-12
        # weights and masses are the correctly rounded exact ratios
        assert nu.weights.tolist() == [float(Fraction(int(m), len(entries)))
                                       for m in nu.multiplicities]
        for cutoff in (0.0, *nu.values):
            exact = sum(Fraction(int(m), len(entries))
                        for m, s in zip(nu.multiplicities, nu.values) if s <= cutoff)
            assert nu.mass_below(cutoff) == float(exact)


def bulk(model, n_dim):
    """The solved noise bulk of ``model`` at M/N = dim / n_dim."""
    return find_w_plus(esd(model), model.dim / n_dim)


class TestAssumptions:
    def test_identity_all_pass(self):
        rep = check_assumptions(bulk(make_covariance("identity", 100), 200), 0.1)
        assert rep.all_ok
        # closed-form critical point for isotropic noise at phi = 1/2
        expected = 1.0 - 1.0 / (1.0 + math.sqrt(0.5))
        assert rep.edge_regularity.margin == pytest.approx(expected, abs=1e-9)

    def test_norm_bound_violation(self):
        entries = np.ones(50)
        entries[0] = 20.0
        rep = check_assumptions(
            bulk(make_covariance("diagonal", 50, entries=entries), 100), 0.1)
        assert not rep.norm_bound.ok
        assert rep.norm_bound.margin == pytest.approx(10.0 - 20.0)

    def test_zero_matrix_mass_violation(self):
        # the zero matrix has no bulk edge to check; zero but for one entry,
        # it has one, and the mass violation is reported instead of raised
        with pytest.raises(DomainError):
            bulk(make_covariance("diagonal", 20, entries=np.zeros(20)), 40)
        entries = np.zeros(20)
        entries[0] = 1.0
        rep = check_assumptions(
            bulk(make_covariance("diagonal", 20, entries=entries), 40), 0.1)
        assert not rep.low_mass.ok
        assert rep.low_mass.margin == pytest.approx(0.9 - 0.95)
        assert not rep.all_ok

    @given(st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=20, deadline=None)
    def test_never_raises(self, tau):
        rep = check_assumptions(bulk(make_covariance("identity", 30), 60), tau)
        assert rep.phi == pytest.approx(0.5)
