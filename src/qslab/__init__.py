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
)
from .qprocess import (
    ConditionalGapReport,
    QProcessChain,
    conditional_vs_q_gap,
    h_transform,
)
from .variance_clt import (
    AdditiveObservable,
    exact_conditional_charfuns,
    exact_conditional_moments,
    make_observable,
    sigma2_poisson,
    sigma2_quadrature,
)
from .montecarlo import (
    EmpiricalDistribution,
    conditional_clt_sample,
    kolmogorov_distance,
    philox_stream,
    quasi_ergodic_check,
)
from . import errors
