"""Moment-based CCDF bounds on OFDM peak power and unitary-matrix
PAPR reduction."""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    bound_report,
    chernoff_objective,
    codebook_endpoints,
    gaussian_ccdf_bound,
    gaussian_quartic_moment,
    hoeffding_ccdf_bound,
    markov_ccdf_bound,
    optimal_chernoff_s,
    qam_endpoints,
    r_statistic,
    real_embedding,
)
from .channel import (
    BerCurve,
    LinkConfig,
    RappModel,
    ber_sweep,
    noise_sigma,
    qam_awgn_ber,
    rapp_apply,
)
from .core import (
    Codebook,
    QamConstellation,
    generate_codebook,
    load_codebook,
    save_codebook,
    subset_gram,
)
from .optimizer import (
    OptimizerConfig,
    RankDeficientUpdate,
    UnitarySet,
    load_unitaries,
    project_gram_schmidt,
    random_unitary,
    run,
    save_unitaries,
    step_batch,
    step_stochastic,
)
from .spectral import SpectralBasis, build_basis, quartic_sum
from .waveform import (
    CcdfCurve,
    baseband_samples,
    codebook_pmeprs,
    db_to_linear,
    default_gamma_grid_db,
    empirical_ccdf,
    linear_to_db,
    peak_envelope_power,
    pmepr,
)
