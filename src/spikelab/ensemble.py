"""Noise laws, reproducible Monte-Carlo ensembles, and fluctuation samples.

Replications draw from counter-based Philox streams keyed by
(master_seed, ..., replication index), so results are bit-identical under
any parallel schedule.  Every replication loop but the verify battery's
(one seed per ``parallel_map`` item) runs through ``map_chunks``: it splits
the replications into consecutive chunks that fill ``CHUNK_BYTES``
(``rep_chunks``), hands each chunk the streams of its replications, and
concatenates the chunks' results in replication order.  A
chunk draws its replications into one stacked array and makes one stacked
factorization (``top_eigs`` on a stack); BLAS and LAPACK treat every matrix
of a stack on its own, so a record does not depend on the chunk it fell in.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .spectra import CovarianceModel, make_covariance
from .spikes import (
    SignalModel,
    SpikeTheory,
    asymptotic_quantities,
    deform,
    theta_component_cf,
)

_SQRT3 = math.sqrt(3.0)


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream for one replication (or finer unit).

    Keyed by the master seed plus an integer path, so stream identity never
    depends on execution order or worker count.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


#: Bytes the stacked arrays of one chunk of replications may hold (see
#: ``rep_bytes``).  One stacked LAPACK call on many small matrices costs far
#: less than one call per matrix, above all on several threads.  The cap
#: bounds a chunk's working set, which glibc's allocator keeps mapped for
#: reuse once its dynamic mmap threshold has risen past the stacks' sizes:
#: on the detection benchmark (2 threads) a 6 MiB cap raised the peak RSS by
#: about 8 MiB, while 5 MiB leaves it where one replication at a time has it.
CHUNK_BYTES = 5 * 2**20


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without CPU affinity
        return os.cpu_count() or 1


def _pool_size(workers, n_items: int) -> int:
    """Threads ``parallel_map`` runs for ``n_items``: ``workers``, but at most
    one per item and one per usable CPU."""
    if workers is None or workers <= 1:
        return 1
    return max(min(workers, n_items, _usable_cpus()), 1)


def parallel_map(fn, items, workers=None):
    """Order-preserving map on min(workers, items, usable CPUs) threads, at
    least one (BLAS and LAPACK release the GIL).

    Even a single item runs on a pool thread: glibc's main arena, which the
    calling thread allocates from, keeps more of the memory a chunk of
    replications frees.  The detection benchmark's white Gaussian nulls
    peaked at 59.3 MiB RSS on a pool thread against 63.9-68.3 MiB on the
    calling thread (2-vCPU Linux VM).
    """
    items = list(items)
    with ThreadPoolExecutor(_pool_size(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def rep_bytes(m: int, n: int) -> int:
    """Bytes one M x N replication holds in a chunk's stacks: the draw, its
    factored (or row-scaled) copy and the smaller Gram matrix."""
    return 8 * (2 * m * n + min(m, n) ** 2)


def rep_chunks(reps: int, nbytes: int) -> list[range]:
    """Consecutive replication ranges whose stacks fill ``CHUNK_BYTES``
    (``nbytes`` per replication; one replication at least).  No replications
    give one empty chunk."""
    size = max(CHUNK_BYTES // nbytes, 1)
    return [range(i, min(i + size, reps)) for i in range(0, max(reps, 1), size)]


def map_chunks(fn, reps: int, workers, nbytes: int, *path: int) -> tuple:
    """Ordered reduce of ``fn`` over ``rep_chunks``, on ``parallel_map``.

    ``fn(rngs)`` gets a chunk's generators, ``stream(*path, rep)`` for each
    of its replications, and returns a tuple of arrays whose leading axis
    runs over them; each is concatenated over the chunks in replication
    order.
    """
    def run(chunk):
        return fn([stream(*path, rep) for rep in chunk])

    parts = parallel_map(run, rep_chunks(reps, nbytes), workers)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


@dataclass(frozen=True)
class NoiseLaw:
    """Standardized entry distribution (mean 0, variance 1).

    ``kappa4`` is the excess kurtosis E x^4 - 3.  ``cf`` is the analytic
    scalar characteristic function (vectorized, complex-valued) where one
    exists; sampler-only custom laws carry None.
    """

    kind: str
    kappa3: float
    kappa4: float
    cf: object = None
    _sampler: object = None

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        return self._sampler(rng, shape)


def _discrete_sampler(atoms, probs):
    atoms = np.asarray(atoms, dtype=float)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    index_type = np.min_scalar_type(len(atoms) - 1)

    def draw(rng, shape):
        # the atom index of u is #{j : cum[j] <= u}, as searchsorted(cum, u,
        # side="right") counts it; cum[-1] = 1 never counts since u < 1
        u = rng.random(shape)
        idx = np.zeros(u.shape, dtype=index_type)
        for c in cum[:-1]:
            idx += u >= c
        return atoms[idx]

    return draw


def _discrete_cf(atoms, probs):
    atoms = np.asarray(atoms, dtype=float)
    probs = np.asarray(probs, dtype=float)

    def cf(t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * t[..., None] * atoms) @ probs.astype(complex)

    return cf


def make_noise_law(kind: str, atoms=None, probs=None) -> NoiseLaw:
    """Construct a standardized noise law by name.

    Built-ins: ``gaussian``, ``uniform-sym`` (Unif(-sqrt3, sqrt3)),
    ``three-point`` (P(+-sqrt3) = 1/6, P(0) = 2/3), ``four-point``
    (P(+-1/sqrt2) = 4/9, P(+-sqrt5) = 1/18), ``shifted-exponential``
    (Exp(1) - 1), and ``discrete`` with explicit atoms/probs (standardized
    here).  The three/four-point laws match the Gaussian's first four
    moments exactly, so their third and fourth cumulants are 0.
    """
    if kind == "gaussian":
        return NoiseLaw(
            "gaussian", 0.0, 0.0,
            cf=lambda t: np.exp(-0.5 * np.asarray(t, dtype=float) ** 2) + 0j,
            _sampler=lambda rng, shape: rng.standard_normal(shape),
        )
    if kind == "uniform-sym":
        # E x^4 = 9/5 for Unif(-sqrt3, sqrt3), so excess kurtosis is -6/5
        return NoiseLaw(
            "uniform-sym", 0.0, -1.2,
            cf=lambda t: np.sinc(_SQRT3 * np.asarray(t, dtype=float) / np.pi) + 0j,
            _sampler=lambda rng, shape: rng.uniform(-_SQRT3, _SQRT3, shape),
        )
    if kind == "three-point":
        atoms_, probs_ = [-_SQRT3, 0.0, _SQRT3], [1 / 6, 2 / 3, 1 / 6]
        return NoiseLaw(
            "three-point", 0.0, 0.0,
            cf=lambda t: (2.0 + np.cos(_SQRT3 * np.asarray(t, dtype=float))) / 3.0 + 0j,
            _sampler=_discrete_sampler(atoms_, probs_),
        )
    if kind == "four-point":
        a1, a2 = 1.0 / math.sqrt(2.0), math.sqrt(5.0)
        atoms_ = [-a2, -a1, a1, a2]
        probs_ = [1 / 18, 4 / 9, 4 / 9, 1 / 18]
        return NoiseLaw(
            "four-point", 0.0, 0.0,
            cf=lambda t: (8.0 * np.cos(np.asarray(t, dtype=float) * a1)
                          + np.cos(np.asarray(t, dtype=float) * a2)) / 9.0 + 0j,
            _sampler=_discrete_sampler(atoms_, probs_),
        )
    if kind == "shifted-exponential":
        # cumulants of Exp(1) are (p-1)!, unchanged by centering beyond the mean
        return NoiseLaw(
            "shifted-exponential", 2.0, 6.0,
            cf=lambda t: np.exp(-1j * np.asarray(t, dtype=float))
            / (1.0 - 1j * np.asarray(t, dtype=float)),
            _sampler=lambda rng, shape: rng.standard_exponential(shape) - 1.0,
        )
    if kind == "discrete":
        if atoms is None or probs is None:
            raise ConfigError("discrete law requires atoms and probs")
        atoms = np.asarray(atoms, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if atoms.ndim != 1 or atoms.size == 0 or probs.shape != atoms.shape:
            raise ConfigError(f"discrete law needs one probability per atom, got "
                              f"{atoms.size} atoms and {probs.size} probabilities")
        if probs.min() < 0 or abs(math.fsum(probs) - 1.0) > 1e-12:
            raise ConfigError("discrete probabilities must be >= 0 and sum to 1")
        mean = math.fsum(probs * atoms)
        var = math.fsum(probs * (atoms - mean) ** 2)
        if var <= 0:
            raise ConfigError("discrete law is degenerate (zero variance)")
        std_atoms = (atoms - mean) / math.sqrt(var)
        kappa3 = math.fsum(probs * std_atoms**3)
        kappa4 = math.fsum(probs * std_atoms**4) - 3.0
        return NoiseLaw(
            "discrete", kappa3, kappa4,
            cf=_discrete_cf(std_atoms, probs),
            _sampler=_discrete_sampler(std_atoms, probs),
        )
    raise ConfigError(f"unknown noise law {kind!r}")


def top_eigs(ytilde: np.ndarray, r: int) -> np.ndarray:
    """Largest r eigenvalues of Ytilde Ytilde^T (squared singular values),
    descending, for one M x N matrix or a stack of shape (..., M, N).

    Takes one ``eigvalsh`` of the smaller Gram matrices (Y Y^T when M <= N,
    else Y^T Y) at every shape, and returns shape (..., r).  A stack gives
    each matrix exactly the values it gives alone.  Each returned eigenvalue
    carries an absolute error of about eps * lambda_1 (Golub & Van Loan,
    section 8.6): relative accuracy near the top of the spectrum, but not for
    eigenvalues far below lambda_1.
    """
    m, n = ytilde.shape[-2:]
    if not 1 <= r <= min(m, n):
        raise DomainError(f"r={r} out of range for a {m}x{n} matrix")
    transposed = np.swapaxes(ytilde, -1, -2)
    gram = ytilde @ transposed if m <= n else transposed @ ytilde
    vals = np.linalg.eigvalsh(gram)
    return vals[..., : -r - 1 : -1]


@dataclass(frozen=True)
class SpikeSamples:
    """Per-replication top eigenvalues and scaled spike fluctuations.

    Record ``i`` was drawn from ``stream(master_seed, i)``, so any single
    replication can be replayed exactly; the CSV's ``rep`` column is the row
    index ``i``.
    """

    lambdas: np.ndarray
    fluctuations: np.ndarray
    theta_samples: np.ndarray | None
    theory: SpikeTheory | None

    def to_csv(self, path, precision: int = 17):
        """One row per replication: rep id, eigenvalues, fluctuations, Theta."""
        r = self.lambdas.shape[1]
        k0 = self.fluctuations.shape[1]
        cols = (["rep"] + [f"lambda_{i + 1}" for i in range(r)]
                + [f"fluct_{i + 1}" for i in range(k0)])
        if self.theta_samples is not None:
            cols += [f"theta_comp_{i + 1}" for i in range(k0)]
        fmt = f"{{:.{precision}g}}".format
        with open(path, "w", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(self.lambdas.shape[0]):
                row = [str(i)]
                row += [fmt(x) for x in self.lambdas[i]]
                row += [fmt(x) for x in self.fluctuations[i]]
                if self.theta_samples is not None:
                    row += [fmt(x) for x in self.theta_samples[i]]
                fh.write(",".join(row) + "\n")


def run_spike_mc(sigma: CovarianceModel, signal: SignalModel, law: NoiseLaw,
                 reps: int, master_seed: int, *, model: str = "additive",
                 couple_theta: bool = False, n_top: int | None = None,
                 tau: float = 0.01, workers=None) -> SpikeSamples:
    """Seeded spike Monte Carlo of S + Sigma^(1/2) X (``model`` "additive") or
    (Sigma + S S^T)^(1/2) X ("multiplicative"), X = law / sqrt(N).

    Each record holds the top ``n_top`` (default max(K0, 1)) eigenvalues and
    the fluctuations sqrt(N)(lambda_k - theta_k) of the K0 spikes clearing
    ``tau``; with ``couple_theta`` also the nonuniversal components of the
    same draw, for the characteristic-function check against the theory.
    """
    m_dim, n_dim = signal.shape
    if sigma.dim != m_dim:
        raise DomainError("covariance / signal dimension mismatch")
    if model not in ("additive", "multiplicative"):
        raise ConfigError(f"unknown model {model!r}")

    pop = deform(sigma, signal, tau)
    theory = (asymptotic_quantities(sigma, signal, pop, law, n_dim)
              if pop.K0 >= 1 else None)
    k0 = pop.K0
    r = n_top if n_top is not None else max(k0, 1)
    if not k0 <= r <= min(m_dim, n_dim):
        raise ConfigError(f"n_top={r} is outside [K0, min(M, N)] = "
                          f"[{k0}, {min(m_dim, n_dim)}]")
    sqrt_n = math.sqrt(n_dim)

    # additive: S + Sigma^(1/2) X; multiplicative: (Sigma + S S^T)^(1/2) X.
    # Both are drawn in the eigen-coordinates of the covariance under the
    # root, rotated on the left by V', which keeps the singular values
    if model == "additive":
        root = sigma
        shift = sigma.coordinates(signal.left * signal.svals) @ signal.right.T
    else:
        root = make_covariance("dense", m_dim,
                               matrix=sigma.matrix() + signal.gram_m())
        shift = 0.0

    coupled = bool(couple_theta and k0)

    def chunk(rngs):
        x = np.empty((len(rngs), m_dim, n_dim))
        for i, rng in enumerate(rngs):
            x[i] = law.sample(rng, (m_dim, n_dim))
        x /= sqrt_n
        y = root.sqrt_coordinates(x)
        y += shift
        lam = top_eigs(y, r)
        fluct = sqrt_n * (lam[:, :k0] - theory.theta) if k0 else lam[:, :0]
        if not coupled:
            return lam, fluct
        th = (2.0 * sqrt_n * theory.theta_prime
              * np.sum((theory.sqrt_sigma_psi @ x) * theory.s_top_psi, axis=-1))
        return lam, fluct, th

    lambdas, fluct, *thetas = map_chunks(chunk, reps, workers,
                                         rep_bytes(m_dim, n_dim), master_seed)
    return SpikeSamples(lambdas=lambdas, fluctuations=fluct,
                        theta_samples=thetas[0] if coupled else None, theory=theory)


def equal_split_labels(n_samples: int, n_clusters: int) -> np.ndarray:
    """Deterministic block labels with exact proportions: floor(N/K) per
    cluster, the remainder spread over the leading clusters."""
    if n_samples < n_clusters:
        raise ConfigError(f"{n_samples} samples cannot fill {n_clusters} clusters")
    base = n_samples // n_clusters
    counts = np.full(n_clusters, base)
    counts[: n_samples - base * n_clusters] += 1
    return np.repeat(np.arange(n_clusters), counts)


def mixture_signal(centers, assignment, n_samples: int):
    """Scaled mixture signal (1/sqrt(N)) [c_1..c_K] [1_{N_1}..1_{N_K}]^T.

    ``assignment`` names the rule that assigns samples to clusters; the one
    rule is ``"equal"``, exact deterministic proportions.  Returns the
    SignalModel together with the realized cluster sizes.
    """
    if assignment != "equal":
        raise ConfigError(f"unknown assignment rule {assignment!r}")
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    n_clusters = centers.shape[1]
    labels = equal_split_labels(n_samples, n_clusters)
    indicator = np.zeros((n_samples, n_clusters))
    indicator[np.arange(n_samples), labels] = 1.0
    sig = SignalModel.from_outer(centers / math.sqrt(n_samples), indicator)
    return sig, np.bincount(labels, minlength=n_clusters)


@dataclass(frozen=True)
class CfComparison:
    empirical: complex
    predicted: complex
    gap: float


def empirical_cf_check(samples: SpikeSamples, law: NoiseLaw, s, t) -> CfComparison:
    """Empirical vs predicted joint characteristic function of (Phi, Theta).

    The empirical side averages exp(i(s . Phi + t . Theta)) over
    replications, with Phi_k = sqrt(N)(lambda_k - theta_k) - Theta_k - L_k
    from the coupled records; the predicted side is
    exp(-(V + 2 W)/2) E exp(i t . Theta) with the exact Theta cf of ``law``,
    the noise law the samples were drawn from.
    """
    if samples.theta_samples is None:
        raise DomainError("samples lack coupled nonuniversal components")
    theory = samples.theory
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    k0 = theory.K0
    if s.shape != (k0,) or t.shape != (k0,):
        raise DomainError(f"coefficient vectors must have length {k0}")

    phi_samples = samples.fluctuations - samples.theta_samples - theory.spike_bias
    lhs = complex(np.mean(np.exp(1j * (phi_samples @ s + samples.theta_samples @ t))))
    quad = float(s @ theory.gauss_cov @ s + 2.0 * (s @ theory.cross_cov @ t))
    rhs = math.exp(-0.5 * quad) * theta_component_cf(t, theory, law, theory.N)
    return CfComparison(lhs, rhs, abs(lhs - rhs))
