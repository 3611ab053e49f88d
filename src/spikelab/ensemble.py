"""Noise laws, reproducible Monte-Carlo ensembles, and fluctuation samples.

Replications draw from counter-based Philox streams keyed by
(master_seed, replication index), so results are bit-identical under any
parallel schedule.  The replication loops map over chunks of consecutive
replications (``rep_chunks``): a chunk draws each of its replications from
that replication's own stream into one stacked array, then makes one stacked
factorization (``top_eigs`` on a stack).  BLAS and LAPACK treat every matrix
of a stack on its own, so a record does not depend on the chunk it fell in.
Aggregation is an ordered reduce over the chunks, concatenated in
replication order (``map_chunks``).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

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
    """Order-preserving map on min(workers, items, usable CPUs) threads (BLAS
    and LAPACK release the GIL); serial when that is one."""
    items = list(items)
    threads = _pool_size(workers, len(items))
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def rep_bytes(m: int, n: int) -> int:
    """Bytes one M x N replication holds in a chunk's stacks: the draw, its
    rooted (or scaled) copy and the smaller Gram matrix."""
    return 8 * (2 * m * n + min(m, n) ** 2)


def rep_chunks(reps: int, workers, nbytes: int) -> list[range]:
    """Consecutive replication ranges, ceil(reps / threads) long for the
    threads ``parallel_map`` runs, but short enough that a chunk's stacks hold
    at most ``CHUNK_BYTES`` (``nbytes`` per replication; one replication at
    least).  No replications give one empty chunk."""
    size = max(min(math.ceil(reps / _pool_size(workers, reps)),
                   CHUNK_BYTES // nbytes), 1)
    return [range(i, min(i + size, reps)) for i in range(0, max(reps, 1), size)]


def map_chunks(fn, reps: int, workers, nbytes: int) -> tuple:
    """Ordered reduce of ``fn`` over ``rep_chunks``.

    ``fn(chunk)`` returns a tuple of arrays whose leading axis runs over the
    chunk's replications; each is concatenated over the chunks in
    replication order.
    """
    parts = parallel_map(fn, rep_chunks(reps, workers, nbytes), workers)
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


def exact_even_moments(atoms_sq, probs):
    """(E x^2, E x^4) of a symmetric discrete law, as exact Fractions.

    ``atoms_sq`` are the squared atom values of the positive half (plus an
    optional atom at zero handled through its probability weight).
    """
    m2 = sum(Fraction(p) * Fraction(a2) for a2, p in zip(atoms_sq, probs))
    m4 = sum(Fraction(p) * Fraction(a2) ** 2 for a2, p in zip(atoms_sq, probs))
    return 2 * m2, 2 * m4


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
    moments exactly; their cumulants are set from rational arithmetic.
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
            "uniform-sym", 0.0, float(Fraction(9, 5) - 3),
            cf=lambda t: np.sinc(_SQRT3 * np.asarray(t, dtype=float) / np.pi) + 0j,
            _sampler=lambda rng, shape: rng.uniform(-_SQRT3, _SQRT3, shape),
        )
    if kind == "three-point":
        m2, m4 = exact_even_moments([3], [Fraction(1, 6)])
        assert (m2, m4) == (1, 3)
        atoms_, probs_ = [-_SQRT3, 0.0, _SQRT3], [1 / 6, 2 / 3, 1 / 6]
        return NoiseLaw(
            "three-point", 0.0, float(m4 - 3),
            cf=lambda t: (2.0 + np.cos(_SQRT3 * np.asarray(t, dtype=float))) / 3.0 + 0j,
            _sampler=_discrete_sampler(atoms_, probs_),
        )
    if kind == "four-point":
        m2, m4 = exact_even_moments(
            [Fraction(1, 2), 5], [Fraction(4, 9), Fraction(1, 18)]
        )
        assert (m2, m4) == (1, 3)
        a1, a2 = 1.0 / math.sqrt(2.0), math.sqrt(5.0)
        atoms_ = [-a2, -a1, a1, a2]
        probs_ = [1 / 18, 4 / 9, 4 / 9, 1 / 18]
        return NoiseLaw(
            "four-point", 0.0, float(m4 - 3),
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
class SpikeMCConfig:
    """Configuration for a spiked-ensemble Monte Carlo run."""

    sigma: CovarianceModel
    signal: SignalModel
    law: NoiseLaw
    reps: int
    master_seed: int
    model: str = "additive"          # additive | multiplicative
    couple_theta: bool = False
    n_top: int | None = None
    tau: float = 0.01
    workers: int | None = None


@dataclass(frozen=True)
class SpikeSamples:
    """Per-replication top eigenvalues and scaled spike fluctuations.

    Record ``i`` was generated from ``stream(master_seed, rep_ids[i])``, so
    any single replication can be replayed exactly.
    """

    lambdas: np.ndarray
    fluctuations: np.ndarray
    theta_samples: np.ndarray | None
    rep_ids: np.ndarray
    master_seed: int
    model: str
    config: SpikeMCConfig
    theory: SpikeTheory | None

    @property
    def reps(self) -> int:
        return self.lambdas.shape[0]

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
            for i in range(self.reps):
                row = [str(int(self.rep_ids[i]))]
                row += [fmt(x) for x in self.lambdas[i]]
                row += [fmt(x) for x in self.fluctuations[i]]
                if self.theta_samples is not None:
                    row += [fmt(x) for x in self.theta_samples[i]]
                fh.write(",".join(row) + "\n")


def run_spike_mc(config: SpikeMCConfig) -> SpikeSamples:
    """Run the seeded spike Monte Carlo for the additive or multiplicative model.

    With ``couple_theta`` each record also stores the nonuniversal components
    computed from the same noise draw, enabling the characteristic-function
    comparison against the deterministic theory.
    """
    sigma, signal, law = config.sigma, config.signal, config.law
    m_dim, n_dim = signal.shape
    if sigma.dim != m_dim:
        raise DomainError("covariance / signal dimension mismatch")
    if config.model not in ("additive", "multiplicative"):
        raise ConfigError(f"unknown model {config.model!r}")

    pop = deform(sigma, signal, config.tau)
    theory = (asymptotic_quantities(sigma, signal, pop, law, n_dim)
              if pop.K0 >= 1 else None)
    k0 = pop.K0
    r = config.n_top if config.n_top is not None else max(k0, 1)
    if not k0 <= r <= min(m_dim, n_dim):
        raise ConfigError(f"n_top={r} is outside [K0, min(M, N)] = "
                          f"[{k0}, {min(m_dim, n_dim)}]")
    sqrt_n = math.sqrt(n_dim)

    # additive: S + Sigma^(1/2) X; multiplicative: (Sigma + S S^T)^(1/2) X
    if config.model == "additive":
        root, shift = sigma, signal.dense()
    else:
        root = make_covariance("dense", m_dim,
                               matrix=sigma.matrix() + signal.gram_m())
        shift = 0.0

    coupled = bool(config.couple_theta and k0)

    def chunk(reps):
        x = np.empty((len(reps), m_dim, n_dim))
        for i, rep in enumerate(reps):
            x[i] = law.sample(stream(config.master_seed, rep), (m_dim, n_dim))
        x /= sqrt_n
        y = root.sqrt_matmat(x)
        y += shift
        lam = top_eigs(y, r)
        fluct = sqrt_n * (lam[:, :k0] - theory.theta) if k0 else lam[:, :0]
        if not coupled:
            return lam, fluct
        th = (2.0 * sqrt_n * theory.theta_prime
              * np.sum((theory.sqrt_sigma_psi @ x) * theory.s_top_psi, axis=-1))
        return lam, fluct, th

    lambdas, fluct, *thetas = map_chunks(chunk, config.reps, config.workers,
                                         rep_bytes(m_dim, n_dim))
    return SpikeSamples(
        lambdas=lambdas, fluctuations=fluct,
        theta_samples=thetas[0] if coupled else None,
        rep_ids=np.arange(config.reps), master_seed=config.master_seed,
        model=config.model, config=config, theory=theory,
    )


def equal_split_labels(n_samples: int, n_clusters: int) -> np.ndarray:
    """Deterministic block labels with exact proportions: floor(N/K) per
    cluster, the remainder spread over the leading clusters."""
    base = n_samples // n_clusters
    counts = np.full(n_clusters, base)
    counts[: n_samples - base * n_clusters] += 1
    return np.repeat(np.arange(n_clusters), counts)


def mixture_signal(centers, assignment, n_samples: int, rng=None):
    """Scaled mixture signal (1/sqrt(N)) [c_1..c_K] [1_{N_1}..1_{N_K}]^T.

    ``assignment`` is either an explicit integer label vector of length N,
    the string ``"equal"`` for exact deterministic proportions, or a
    probability vector over clusters sampled with ``rng``.  Returns the
    SignalModel together with the realized cluster sizes.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    n_clusters = centers.shape[1]
    if isinstance(assignment, str):
        if assignment != "equal":
            raise ConfigError(f"unknown assignment rule {assignment!r}")
        labels = equal_split_labels(n_samples, n_clusters)
    else:
        assignment = np.asarray(assignment)
        if np.issubdtype(assignment.dtype, np.integer):
            labels = assignment
            if labels.shape != (n_samples,):
                raise ConfigError("label vector length must equal N")
        else:
            if assignment.shape != (n_clusters,) or abs(math.fsum(assignment) - 1) > 1e-12:
                raise ConfigError("cluster probabilities must sum to 1")
            if rng is None:
                raise ConfigError("probabilistic assignment requires an rng")
            labels = np.searchsorted(np.cumsum(assignment), rng.random(n_samples),
                                     side="right")
    counts = np.bincount(labels, minlength=n_clusters)
    if (counts == 0).any():
        warnings.warn("mixture has empty cluster(s); signal rank drops",
                      stacklevel=2)
    indicator = np.zeros((n_samples, n_clusters))
    indicator[np.arange(n_samples), labels] = 1.0
    sig = SignalModel.from_outer(centers / math.sqrt(n_samples), indicator)
    return sig, counts


@dataclass(frozen=True)
class CfComparison:
    empirical: complex
    predicted: complex
    gap: float


def empirical_cf_check(samples: SpikeSamples, theory: SpikeTheory,
                       s, t) -> CfComparison:
    """Empirical vs predicted joint characteristic function of (Phi, Theta).

    The empirical side averages exp(i(s . Phi + t . Theta)) over
    replications, with Phi_k = sqrt(N)(lambda_k - theta_k) - Theta_k - L_k
    from the coupled records; the predicted side is
    exp(-(V + 2 W)/2) E exp(i t . Theta) with the exact Theta cf.
    """
    if samples.theta_samples is None:
        raise DomainError("samples lack coupled nonuniversal components")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    k0 = theory.K0
    if s.shape != (k0,) or t.shape != (k0,):
        raise DomainError(f"coefficient vectors must have length {k0}")

    phi_samples = samples.fluctuations - samples.theta_samples - theory.spike_bias
    lhs = complex(np.mean(np.exp(1j * (phi_samples @ s + samples.theta_samples @ t))))
    quad = float(s @ theory.gauss_cov @ s + 2.0 * (s @ theory.cross_cov @ t))
    rhs = math.exp(-0.5 * quad) * theta_component_cf(
        t, theory, samples.config.law, theory.N
    )
    return CfComparison(lhs, rhs, abs(lhs - rhs))
