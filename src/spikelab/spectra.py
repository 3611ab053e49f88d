"""Population covariance models and their spectral data.

A covariance is held in one spectral form, Sigma = V diag(values) V', where
the axis-aligned recipes store no basis V.  Everything downstream reads it
through that form: the sorted eigenvalues (edge finding, spike limits) and
elementwise functions f(Sigma), either dense (``function``), applied to a
vector or a block of columns (``apply``: Sigma, Sigma^{1/2} X, the local-law
Pi(z)) or as a diagonal (``diagonal``), and V'x and back (``coordinates``,
``from_coordinates``, which the secular equation of the deformed population
reads).  No dense Sigma^{1/2} is formed: the Monte-Carlo draws apply the
factor F = Lambda^{1/2} V' (``factor``, ``sqrt_coordinates``), which gives
Sigma^{1/2} X up to the left rotation V', a rotation that leaves the
singular values unchanged.  ``esd`` turns a model into its spectral
distribution nu, and ``newton_in`` is the one scalar root-finder.  This is
the lowest layer: it imports nothing from the package but ``errors``.
Supported recipes:

  identity        Sigma = I
  diagonal        explicit diagonal entries
  toeplitz        geometric decay, Sigma_ij = rho ** |i - j| (eigenpairs in
                  closed form)
  haar            O diag(s) O^T with s_i ~ Unif(a, b) and O Haar-orthogonal
  dense           explicit symmetric PSD matrix
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, NumericalError


def haar_orthogonal(gaussian: np.ndarray) -> np.ndarray:
    """Haar-distributed orthogonal matrices from standard Gaussian ones.

    Sign-corrected QR of each M x M matrix of ``gaussian`` (one matrix or a
    stack of shape (..., M, M), factored by one stacked ``qr``): multiplying
    Q's columns by the signs of R's diagonal removes the sign ambiguity that
    would otherwise bias plain QR away from Haar.
    """
    q, r = np.linalg.qr(gaussian)
    q *= np.copysign(1.0, np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return q


@dataclass(frozen=True)
class CovarianceModel:
    """Population noise covariance Sigma = V diag(values) V'.

    ``basis`` (V) is None for the axis-aligned recipes, whose ``values`` are
    the diagonal entries in storage order; otherwise ``values`` are the
    eigenvalues belonging to V's columns.  Every map below is an elementwise
    function of ``values`` carried through V where there is one.  A stack of
    covariances (values (..., M), basis (..., M, M)) serves ``dim``,
    ``factor``, ``coordinates`` and ``sqrt_coordinates``, matrix by matrix.
    """

    recipe: str
    values: np.ndarray
    basis: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sorted non-increasing (ties keep the storage order)."""
        return self.values[_stable_descending_order(self.values)]

    def function(self, fn) -> np.ndarray:
        """Dense f(Sigma) = V f(Lambda) V' for an elementwise function ``fn``."""
        if self.basis is None:
            return np.diag(fn(self.values))
        return (self.basis * fn(self.values)) @ self.basis.T

    def apply(self, fn, x: np.ndarray) -> np.ndarray:
        """f(Sigma) x for a vector, a block of columns or a stack of blocks,
        without densifying."""
        vals = fn(self.values)
        if self.basis is None:
            return vals[:, None] * x if np.ndim(x) >= 2 else vals * x
        return (self.basis * vals) @ (self.basis.T @ x)

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """V' x: a vector or a block of columns in the order of ``values``."""
        if self.basis is None:
            return np.asarray(x, dtype=float)
        return np.swapaxes(self.basis, -1, -2) @ x

    def from_coordinates(self, y: np.ndarray) -> np.ndarray:
        """V y: the inverse of ``coordinates``, back to storage order."""
        if self.basis is None:
            return np.asarray(y, dtype=float)
        return self.basis @ y

    def diagonal(self, fn) -> np.ndarray:
        """Diagonal of f(Sigma) in storage order."""
        if self.basis is None:
            return fn(self.values)
        return self.basis**2 @ fn(self.values)

    def matrix(self) -> np.ndarray:
        """Materialize Sigma as a dense array."""
        return self.function(lambda vals: vals)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply Sigma to a vector or a block of columns."""
        return self.apply(lambda vals: vals, v)

    def sqrt_matmat(self, x: np.ndarray) -> np.ndarray:
        """Apply Sigma^{1/2} to a vector, a block of columns or a stack of
        blocks, in storage coordinates."""
        return self.apply(np.sqrt, x)

    @cached_property
    def factor(self) -> np.ndarray | None:
        """F = Lambda^{1/2} V', with F'F = Sigma, built in O(M^2) on first
        use; None for the axis recipes, which scale rows instead."""
        if self.basis is None:
            return None
        return np.multiply(np.sqrt(self.values)[..., None],
                           np.swapaxes(self.basis, -1, -2), order="C")

    def sqrt_coordinates(self, x: np.ndarray) -> np.ndarray:
        """V' Sigma^{1/2} x = F x for a vector, a block of columns or a stack
        of blocks: Sigma^{1/2} x up to the left rotation V', which keeps the
        singular values.  The axis recipes scale rows, as ``sqrt_matmat``
        does."""
        if self.basis is None:
            return self.apply(np.sqrt, x)
        return self.factor @ x


def _stable_descending_order(values):
    # argsort on the negated values keeps ties in index order (stable sort);
    # a stack is sorted along its last axis
    return np.argsort(-np.asarray(values), kind="stable")


def newton_in(fn, lo, hi, x, atol=None):
    """Root of an increasing ``fn(x) -> (value, slope)`` in [lo, hi], elementwise.

    Each evaluation moves the bracket's end on the root's far side to x, and
    a Newton step that would leave the bracket becomes its midpoint.  Stops
    once every step moves by at most ``atol``, or by 4 ulps of the iterate
    when ``atol`` is None; a correction that small is then kept even where
    rounding puts it on the bracket's end.  Scalars in give a float out.
    """
    for _ in range(100):
        g, slope = fn(x)
        lo = np.where(g < 0, x, lo)
        hi = np.where(g > 0, x, hi)
        newton = x - np.divide(g, slope)
        step = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        tol = 4.0 * np.spacing(np.abs(x)) if atol is None else atol
        if atol is None:
            step = np.where(np.abs(newton - x) <= tol, newton, step)
        done = np.all(np.abs(step - x) <= tol)
        x = float(step) if np.ndim(step) == 0 else step
        if done:
            break
    return x


def _kms_eigenpairs(dim, rho):
    """Eigenpairs of the Kac-Murdock-Szego matrix rho^|i-j| in closed form.

    Its inverse is tridiagonal, so an eigenvector x_k = sin(k t + p(t)),
    k = 1..dim, with p(t) = atan2(rho sin t, 1 - rho cos t), meets the
    boundary conditions x_0 = rho x_1 and x_{dim+1} = rho x_dim exactly when
    (dim + 1) t + 2 p(t) = j pi.  The left side increases in t and |2p| < pi,
    so the j-th root lies in ((j - 1) pi, (j + 1) pi) / (dim + 1); all dim
    roots are found at once by ``newton_in`` inside those brackets.  The
    eigenvalue is (1 - rho^2) / ((1 - rho)^2 + 4 rho sin^2(t / 2)).
    """
    j = np.arange(1, dim + 1)
    width = np.pi / (dim + 1)

    def angle(t):
        sin_t, cos_t = np.sin(t), np.cos(t)
        g = (dim + 1) * t + 2.0 * np.arctan2(rho * sin_t, 1.0 - rho * cos_t) - j * np.pi
        slope = (dim + 1) + 2.0 * rho * (cos_t - rho) / (1.0 - 2.0 * rho * cos_t + rho**2)
        return g, slope

    t = newton_in(angle, (j - 1) * width, np.minimum((j + 1) * width, np.pi),
                  j * width, atol=4.0 * np.finfo(float).eps)
    phase = np.arctan2(rho * np.sin(t), 1.0 - rho * np.cos(t))
    vecs = np.sin(np.outer(j, t) + phase)
    vecs /= np.linalg.norm(vecs, axis=0)
    vals = (1.0 - rho**2) / ((1.0 - rho) ** 2 + 4.0 * rho * np.sin(0.5 * t) ** 2)
    return vals, vecs


def make_covariance(recipe: str, dim: int, seed=None, **params) -> CovarianceModel:
    """Construct a covariance model from a named recipe.

    Parameters
    ----------
    recipe : one of identity | diagonal | toeplitz | haar | dense
    dim : matrix dimension M >= 1
    seed : required for the haar recipe: an integer or an existing Generator
    params : recipe-specific: ``entries`` (diagonal), ``rho`` (toeplitz),
        ``bounds=(a, b)`` (haar), ``matrix`` (dense)
    """
    if dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {dim}")

    if recipe == "identity":
        return CovarianceModel("identity", np.ones(dim))

    if recipe == "diagonal":
        entries = np.asarray(params["entries"], dtype=float)
        if entries.shape != (dim,):
            raise ConfigError("diagonal entries must have length dim")
        if entries.min() < 0:
            raise DomainError(f"negative diagonal entry {entries.min():.6e}")
        return CovarianceModel("diagonal", entries)

    if recipe == "toeplitz":
        rho = float(params["rho"])
        if abs(rho) >= 1:
            raise ConfigError(f"toeplitz ratio must satisfy |rho| < 1, got {rho}")
        vals, vecs = _kms_eigenpairs(dim, rho)
        order = _stable_descending_order(vals)
        return CovarianceModel("toeplitz", vals[order], basis=vecs[:, order])

    if recipe == "haar":
        a, b = (float(x) for x in params["bounds"])
        if a > b:
            raise ConfigError(f"haar bounds must satisfy a <= b, got ({a}, {b})")
        if a < 0:
            raise DomainError("haar eigenvalue bounds must be nonnegative")
        if seed is None:
            raise ConfigError("haar recipe requires a seed")
        rng = (seed if isinstance(seed, np.random.Generator) else
               np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))))
        spectrum = rng.uniform(a, b, size=dim)
        basis = haar_orthogonal(rng.standard_normal((dim, dim)))
        order = _stable_descending_order(spectrum)
        return CovarianceModel("haar", spectrum[order], basis=basis[:, order])

    if recipe == "dense":
        mat = np.asarray(params["matrix"], dtype=float)
        if mat.shape != (dim, dim):
            raise ConfigError(f"dense matrix must be {dim}x{dim}")
        if not np.allclose(mat, mat.T, atol=1e-12 * max(1.0, np.abs(mat).max())):
            raise DomainError("dense covariance must be symmetric")
        vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
        order = _stable_descending_order(vals)
        vals, vecs = vals[order], vecs[:, order]
        if vals[-1] < -1e-8 * max(vals[0], 1.0):
            raise DomainError(f"dense covariance is not PSD: eigenvalue {vals[-1]:.6g}")
        return CovarianceModel("dense", np.clip(vals, 0.0, None), basis=vecs)

    raise ConfigError(f"unknown covariance recipe {recipe!r}")


@dataclass(frozen=True)
class SpectralDistribution:
    """Discrete spectral distribution: atoms (ascending) with weights.

    ``multiplicities`` keep the exact integer counts, so masses are read as
    count ratios rather than sums of rounded weights.
    """

    values: np.ndarray
    weights: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        total = math.fsum(self.weights)
        if abs(total - 1.0) > 1e-12:
            raise NumericalError(f"spectral weights sum to {total}, not 1")

    @property
    def top(self) -> float:
        return float(self.values[-1])

    def mass_below(self, cutoff: float) -> float:
        """nu([0, cutoff]), as a count ratio (correctly rounded)."""
        mask = self.values <= cutoff
        return int(self.multiplicities[mask].sum()) / int(self.multiplicities.sum())


def esd(model: CovarianceModel) -> SpectralDistribution:
    """Empirical spectral distribution of a covariance model.

    Atoms are the distinct eigenvalues; weights are multiplicity / M, each
    a correctly rounded quotient of two exact integers.
    """
    values, counts = np.unique(model.eigenvalues, return_counts=True)
    return SpectralDistribution(values, counts / model.dim, multiplicities=counts)
