"""Spectral theory and seeded Monte-Carlo validation for spiked
signal-plus-noise matrices, with eigenvalue-ratio heterogeneity tests."""

__version__ = "0.1.0"

from .spectra import (
    AssumptionReport,
    CovarianceModel,
    SpectralDistribution,
    check_assumptions,
    esd,
    haar_orthogonal,
    make_covariance,
)
from .stieltjes import (
    EdgeData,
    f_eval,
    find_w_plus,
    solve_m,
    theta_map,
)
from .spikes import (
    DeformedPopulation,
    SignalModel,
    SpikeTheory,
    asymptotic_quantities,
    deform,
    delocalization_profile,
    mixed_moment,
    sigma_i_reduction_check,
    theta_component_cf,
)
from .ensemble import (
    NoiseLaw,
    SpikeMCConfig,
    SpikeSamples,
    empirical_cf_check,
    make_noise_law,
    mixture_signal,
    run_spike_mc,
    stream,
    top_eigs,
)
from .locallaw import (
    ResolventBundle,
    build_resolvent,
    factor_noise,
    green_rep_residual,
    g_squared_residual,
    isotropic_residual,
    master_matrix_suite,
    two_resolvent_residuals,
)
from .hetero import (
    CriticalValues,
    ExperimentReport,
    ScenarioCell,
    calibrate,
    default_grid,
    detect,
    ds_rs_from_data,
    ds_rs_stats,
    run_power_experiment,
    run_size_experiment,
)
from .verification import run_verification
