"""Asymptotic variance and exact conditional moment / characteristic-function
oracles for additive functionals.

sigma2_poisson solves L_Q g = -f_centered with beta(g) = 0 (one bordered
linear solve) and returns the float sigma^2 = 2 beta(f_centered * g); the
independent cross-check integrates the stationary autocovariance over
[0, 40/gamma] with one block exponential (Van Loan) and bounds its error by
the spectral tail plus a rounding term.  exact_conditional_moments reads the
moments m_k(t) = E_mu[(int_0^t f)^k 1_{survival}] = k! mu E_k 1 (Feynman-Kac)
off spectral.moment_series, from the shifted generator, and scales them back
by e^{st}.  The Van Loan block and the charfun's complex generators take
spectral.exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Union

import numpy as np

from .chain_model import AbsorbedChain, validate_observable
from .errors import OverflowGuard, SingularSolve, ValidationError
from .qprocess import QProcessChain
from .spectral import exponential, moment_series, semigroup

K_MAX = 8


@dataclass(frozen=True, eq=False)
class AdditiveObservable:
    """Bounded-by-one observable with its centered version under beta."""

    f: np.ndarray
    f_centered: np.ndarray
    beta_f: float

    def __post_init__(self):
        self.f.setflags(write=False)
        self.f_centered.setflags(write=False)


def make_observable(qproc: QProcessChain, f) -> AdditiveObservable:
    """f with its centred version under beta.  An AdditiveObservable
    centred under this beta is returned unchanged, any other is centred
    again.  Entries must be finite with max|f| <= 1.  A centred f within
    1e-14 of 0 everywhere counts as constant and is stored as exact zeros."""
    given = f if isinstance(f, AdditiveObservable) else None
    f = validate_observable(f if given is None else given.f, qproc.n)
    bf = float(qproc.beta @ f)
    if given is not None and given.beta_f == bf:
        return given
    ft = f - bf
    if np.max(np.abs(ft)) <= 1e-14:
        ft = np.zeros(qproc.n)  # +0.0 throughout: ft * 0 would leave -0.0 where ft < 0
    return AdditiveObservable(f=f, f_centered=ft, beta_f=bf)


# ---------------------------------------------------------------------------
# sigma^2

def sigma2_poisson(qproc: QProcessChain, f, with_quadrature: bool = False) -> float:
    """sigma^2 by the Green-function route: solve the Poisson equation and
    fold with beta.  with_quadrature is ignored (the benchmark's probe still
    passes it)."""
    ft = make_observable(qproc, f).f_centered
    n = qproc.n
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = qproc.q_generator
    A[:n, n] = 1.0
    A[n, :n] = qproc.beta
    rhs = np.concatenate([-ft, [0.0]])
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(f"bordered Poisson system is singular: {exc}") from exc
    resid = np.abs(A @ sol - rhs).max()
    if resid > 1e-8 * max(1.0, np.abs(rhs).max()):
        raise SingularSolve(f"Poisson solve residual {resid} too large")
    sigma2 = float(2.0 * (qproc.beta * ft) @ sol[:n])
    if sigma2 < -1e-12:
        raise SingularSolve(f"negative variance {sigma2} from Poisson solve")
    return max(sigma2, 0.0)


def sigma2_quadrature(qproc: QProcessChain, f):
    """(value, H, bound): 2 * int_0^H Cov_beta(f(X_0), f(X_s)) ds with H =
    40/gamma and its error bound (truncated tail + rounding term).  Van
    Loan: the last column of e^{H [[L_Q, ft], [0, 0]]} is int_0^H e^{s
    L_Q} ft ds for the centred ft, so one exponential integrates the
    autocovariance beta(ft e^{s L_Q} ft) over [0, H]; an H past the rounding
    floor of its squarings raises OverflowGuard."""
    ft = make_observable(qproc, f).f_centered
    H = 40.0 / qproc.triple.gamma
    LQ = qproc.q_generator
    n = qproc.n
    bft = qproc.beta * ft
    B = np.zeros((n + 1, n + 1))
    B[:n, :n] = LQ
    B[:n, n] = ft
    value = 2.0 * float(bft @ exponential(B, H)[:n, n])
    # spectral amplitudes of the autocovariance, Cov(s) = sum_j c_j e^{w_j s},
    # from L_Q's modes, the chain's eigen (w, vl, vr) as (w + lambda0, eta vl, vr / eta):
    # the projector on mode j is vr_j vl_j^H / (vl_j^H vr_j)
    (w, vl, vr), eta = qproc.chain.eigen, qproc.triple.eta[:, None]
    w, vl, vr = w + qproc.triple.lambda0, vl * eta, vr / eta
    amps = np.abs((bft @ vr) * (ft @ vl.conj()) / np.einsum("ij,ij->j", vl.conj(), vr))
    rest = np.arange(n) != np.argmax(w.real)  # the zero mode carries beta(ft)^2 = 0
    rates = w.real[rest]
    tail = 2.0 * float(np.sum(amps[rest] * np.exp(rates * H) / np.abs(rates)))
    # the squaring phase amplifies roundoff by about ||H L_Q||
    rounding = (n * np.finfo(float).eps * H * np.abs(LQ).sum(axis=1).max()
                * np.abs(bft).sum() * np.abs(ft).max())
    return value, float(H), float(tail + rounding)


# ---------------------------------------------------------------------------
# exact conditional moments and characteristic functions

GeneratorLike = Union[AbsorbedChain, QProcessChain]


@dataclass(frozen=True, eq=False)
class MomentValues:
    t: float
    m: np.ndarray           # m[k] = E_mu[(int_0^t f)^k 1_{survival}], may underflow
    survival: float
    conditional: np.ndarray  # m[k] / survival, from the shifted generator


def exact_conditional_moments(gen: GeneratorLike, mu, f, k_max: int, t):
    """All moments up to k_max at each time of a grid t, m_k = k! mu E_k 1
    from spectral.moment_series; a scalar t is a grid of one and returns
    its MomentValues, a sequence returns a list in the order of t.

    Passing the absorbed chain gives conditioned-chain moments (divide by
    the survival mass m_0); passing the Q-process gives its plain moments.
    With the generator shifted by its principal eigenvalue s, conditional
    stays exact however large -s t is, while m and survival (the shifted
    values times e^{s t}) may underflow to 0; with k_max = 0 the survival
    mass is the only result, so its underflow raises.  A t whose squaring
    phase has a rounding floor above ROUNDING_FLOOR raises, and so does a
    result that is not finite.
    """
    s = gen.shifted[1]
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    times = [float(v) for v in np.ravel(t)]
    if not 0 <= k_max <= K_MAX:
        raise ValidationError(f"k_max must lie in [0, {K_MAX}]")
    factorials = np.array([factorial(k) for k in range(k_max + 1)])
    shifted = {v: factorials * series for v, series in moment_series(gen, mu, f, k_max, times)}
    out = []
    for v in times:
        sv = shifted[v]
        if not (np.all(np.isfinite(sv)) and sv[0] > 0):
            raise OverflowGuard(f"moments at t={v} are not finite or lost the survival mass "
                                f"(shifted survival {sv[0]})")
        m = sv * np.exp(s * v)
        p = float(m[0])
        if k_max == 0 and p <= 0:
            raise OverflowGuard(f"survival mass underflowed at t={v}")
        out.append(MomentValues(t=v, m=m, survival=p, conditional=sv / sv[0]))
    return out if np.ndim(t) else out[0]


def _tilted_law(L, mu, f, z, t) -> np.ndarray:
    """e^{t (L^T + i z diag f)} mu: the law at t of the chain started from
    mu, weighted by e^{i z int_0^t f(X_s) ds} (complex z allowed).  A t past
    the rounding floor of the squarings raises OverflowGuard."""
    return exponential(L.T + 1j * z * np.diag(f), t) @ mu.astype(complex)


def exact_conditional_charfuns(gen: GeneratorLike, mu, f, omegas, t: float) -> list:
    """E_mu[e^{i w' int_0^t f(X_s) ds} | survival] at w' = omega / sqrt(t)
    for each omega of a list, for one t > 0: the survival mass from
    spectral.semigroup (which refuses an infinite t first), then one complex
    exponential of the shifted generator per omega; a t past their rounding
    floor or a value that is not finite raises.  For a conservative
    generator the conditioning divisor is 1."""
    if t <= 0:
        raise ValidationError("charfun needs t > 0")
    L, _ = gen.shifted
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    p = float((mu @ semigroup(gen, t)).sum())
    laws = [_tilted_law(L, mu, f, w / np.sqrt(t), t).sum() for w in omegas]
    if not (p > 0 and np.all(np.isfinite([p, *laws]))):
        raise OverflowGuard(f"characteristic function is not finite at t={t}")
    return [complex(z / p) for z in laws]
