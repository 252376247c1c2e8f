"""qslab: numerical laboratory for absorbed finite Markov chains.

Computes quasi-stationary objects (decay rate, quasi-stationary law, right
eigenfunction, Q-process, quasi-ergodic law, asymptotic variance) exactly by
linear algebra, and checks conditioned central-limit behaviour both by
deterministic matrix-exponential oracles and by reproducible Monte Carlo.
"""

__version__ = "0.1.0"

from .blas import pin_blas_threads
from .chain_model import (
    AbsorbedChain,
    ModelBundle,
    bd5,
    build_birth_death,
    emit_model_config,
    load_model_config,
    m2asym,
    m2sym,
    resolve_model,
    validate_chain,
    validate_initial_law,
    validate_weight,
)
from .spectral import (
    ErgodicityCertificate,
    SpectralTriple,
    certify_ergodicity,
    default_time_grid,
    solve_spectral,
    weighted_norm,
)
from .qprocess import (
    ConditionalGapReport,
    QProcessChain,
    check_q_ergodicity,
    conditional_marginal,
    conditional_vs_q_gap,
    fit_gap_rate,
    h_transform,
    q_marginal,
)
from .variance_clt import (
    AdditiveObservable,
    ConstantsTable,
    MomentReport,
    VarianceResult,
    check_even_moment_limit,
    check_odd_moment_decay,
    check_uniform_charfun_bound,
    constants_table,
    exact_conditional_charfuns,
    exact_conditional_moments,
    make_observable,
    sigma2_poisson,
    sigma2_quadrature,
    sup_over_weight_ball,
)
from .montecarlo import (
    EmpiricalDistribution,
    conditional_clt_sample,
    kolmogorov_distance,
    philox_stream,
    quasi_ergodic_check,
)
from . import errors
