"""Asymptotic variance, explicit constant sequences, and exact conditional
moment / characteristic-function oracles for additive functionals.

sigma2_poisson solves L_Q g = -f_centered with beta(g) = 0 (one bordered
linear solve) and returns sigma^2 = 2 beta(f_centered * g); the independent
cross-check integrates the stationary autocovariance over [0, 40/gamma] with
one block exponential (Van Loan) and bounds its error by the spectral tail
plus a rounding term.  exact_conditional_moments reads the moments
m_k(t) = E_mu[(int_0^t f)^k 1_{survival}] off the exponential of the shifted
generator perturbed by z diag(f), taken in the ring of n x n matrix
polynomials in z truncated after z^K: e^{t(L + z diag f)} = sum_k E_k z^k
mod z^{K+1}, and m_k = k! mu E_k 1 (Feynman-Kac).  This is the block
upper-bidiagonal augmented generator with its k-th block divided by k!,
exponentiated by Pade-13 scaling and squaring (Higham 2005) so that every
product is a truncated Cauchy product of n x n blocks.  The
characteristic-function oracles exponentiate the generator with a complex
perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Union

import numpy as np
from scipy.linalg import expm, lu_factor, lu_solve

from .chain_model import AbsorbedChain
from .errors import OverflowGuard, SingularSolve, ValidationError
from .qprocess import QProcessChain
from .spectral import (
    ErgodicityCertificate,
    log_slope,
    semigroup,
    shifted_generator,
    squarings,
)

K_MAX = 8


@dataclass(frozen=True)
class AdditiveObservable:
    """Bounded-by-one observable with its centered version under beta."""

    f: np.ndarray
    f_centered: np.ndarray
    beta_f: float

    def __post_init__(self):
        self.f.setflags(write=False)
        self.f_centered.setflags(write=False)


def make_observable(qproc: QProcessChain, f) -> AdditiveObservable:
    f = np.asarray(f, dtype=float)
    if f.shape != (qproc.n,):
        raise ValidationError(f"observable must have length {qproc.n}")
    if np.max(np.abs(f)) > 1.0 + 1e-12:
        raise ValidationError("observable must satisfy max|f| <= 1")
    bf = float(qproc.beta @ f)
    return AdditiveObservable(f=f, f_centered=f - bf, beta_f=bf)


def is_constant(f_centered) -> bool:
    """Whether a centred f counts as constant: its CLT statistic is then 0."""
    return bool(np.max(np.abs(f_centered)) <= 1e-14)


# ---------------------------------------------------------------------------
# sigma^2

@dataclass(frozen=True)
class VarianceResult:
    sigma2: float
    g: np.ndarray                # Poisson solution, beta(g) = 0
    quadrature_value: float
    horizon: float               # one exponential spans it
    error_bound: float           # spectral tail + expm rounding term


def sigma2_poisson(qproc: QProcessChain, f,
                   with_quadrature: bool = True) -> VarianceResult:
    """Green-function route: solve the Poisson equation and fold with beta."""
    obs = f if isinstance(f, AdditiveObservable) else make_observable(qproc, f)
    n = qproc.n
    ft = obs.f_centered
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
    g = sol[:n]
    sigma2 = float(2.0 * (qproc.beta * ft) @ g)
    if sigma2 < -1e-12:
        raise SingularSolve(f"negative variance {sigma2} from Poisson solve")
    sigma2 = max(sigma2, 0.0)
    if with_quadrature:
        quad, H, bound = _quadrature(qproc, ft)
    else:
        quad, H, bound = float("nan"), float("nan"), float("nan")
    return VarianceResult(sigma2=sigma2, g=g, quadrature_value=quad,
                          horizon=H, error_bound=bound)


def sigma2_quadrature(qproc: QProcessChain, f):
    """2 * int_0^H Cov_beta(f(X_0), f(X_s)) ds with H = 40/gamma, by one
    block exponential, plus its recorded error bound (truncated tail +
    rounding term)."""
    obs = f if isinstance(f, AdditiveObservable) else make_observable(qproc, f)
    value, _, bound = _quadrature(qproc, obs.f_centered)
    return value, bound


def _quadrature(qproc, ft):
    """Van Loan: the last column of expm(H [[L_Q, ft], [0, 0]]) is
    int_0^H e^{s L_Q} ft ds, so one exponential integrates the
    autocovariance beta(ft e^{s L_Q} ft) over [0, H]."""
    gamma = qproc.gamma
    H = 40.0 / gamma
    LQ = qproc.q_generator
    n = qproc.n
    bft = qproc.beta * ft
    B = np.zeros((n + 1, n + 1))
    B[:n, :n] = LQ
    B[:n, n] = ft
    value = 2.0 * float(bft @ expm(H * B)[:n, n])
    # spectral amplitudes of the autocovariance, Cov(s) = sum_j c_j e^{w_j s},
    # from L_Q's modes: the projector on mode j is vr_j vl_j^H / (vl_j^H vr_j)
    w, vl, vr = qproc.eigen
    amps = np.abs((bft @ vr) * (ft @ vl.conj()) / np.einsum("ij,ij->j", vl.conj(), vr))
    rest = np.arange(n) != np.argmax(w.real)  # the zero mode carries beta(ft)^2 = 0
    rates = w.real[rest]
    tail = 2.0 * float(np.sum(amps[rest] * np.exp(rates * H) / np.abs(rates)))
    # expm's squaring phase amplifies roundoff by about ||H L_Q||
    rounding = (n * np.finfo(float).eps * H * np.abs(LQ).sum(axis=1).max()
                * np.abs(bft).sum() * np.abs(ft).max())
    return value, float(H), float(tail + rounding)


# ---------------------------------------------------------------------------
# explicit constant sequences

@dataclass(frozen=True)
class ConstantsTable:
    C: float
    gamma: float
    c: float
    beta_psi: float
    C1: float
    D: np.ndarray    # D[k-1] = D_k, k = 1..K
    Ck: np.ndarray   # Ck[k-1] = C_k, k = 1..K

    def even_moment_bound(self, k: int, mu_psi: float, t: float) -> float:
        """(2k)! D_k C_1 k/(k-1)! * mu(psi)/t."""
        return (factorial(2 * k) * self.D[k - 1] * self.C1 * k
                / factorial(k - 1) * mu_psi / t)

    def odd_moment_coefficient(self, k: int) -> float:
        """Prefactor scale for m_{2k+1}/t^{k+1/2} <= coeff * mu(psi)/sqrt(t);
        the k = 0 case uses C/(c gamma) since (k-1)! is undefined there."""
        if k == 0:
            return self.C / (self.c * self.gamma)
        return factorial(2 * k + 1) * self.D[k - 1] * self.C1 * k / factorial(k - 1)


def constants_table(cert: ErgodicityCertificate, qproc: QProcessChain,
                    K: int = K_MAX) -> ConstantsTable:
    """Evaluate the explicit sequences in exact rational arithmetic.

    D_1 = max(C^2/c, C beta(psi)/(c^2 gamma)),
    D_k = (r^{k-1} or 1, whichever is larger) * D_1 with r = (C/gamma)(1 + beta(psi)/c),
    C_1 = 1/gamma + 1/gamma^2,  C_k = C_1/(k-1)! + C_1/(k-2)!  (k >= 2).

    The closed forms are checked against their recursions exactly (Fraction
    arithmetic on the binary float inputs) before the floats are returned.
    """
    if K < 1:
        raise ValidationError("need K >= 1")
    C = Fraction(float(cert.C))
    g = Fraction(float(cert.gamma))
    c = Fraction(float(qproc.c))
    bp = Fraction(float(qproc.beta @ qproc.psi))
    D1 = max(C * C / c, C * bp / (c * c * g))
    r = (C / g) * (1 + bp / c)
    D_closed = [max(r ** (k - 1), Fraction(1)) * D1 for k in range(1, K + 1)]
    D_rec = [D1]
    for k in range(2, K + 1):
        D_rec.append(max(D_rec[-1] * r, D1))
    C1 = 1 / g + 1 / (g * g)
    Ck_closed = [C1] + [C1 / factorial(k - 1) + C1 / factorial(k - 2) for k in range(2, K + 1)]
    Ck_rec = [C1]
    for k in range(2, K + 1):
        Ck_rec.append(Ck_rec[-1] / (k - 1) + C1 / factorial(k - 1))
    for k in range(K):
        if D_closed[k] != D_rec[k]:
            raise SingularSolve(f"D_{k + 1} closed form disagrees with recursion")
        if Ck_closed[k] != Ck_rec[k]:
            raise SingularSolve(f"C_{k + 1} closed form disagrees with recursion")
        if Ck_closed[k] != C1 * (k + 1) / factorial(k):
            raise SingularSolve(f"C_{k + 1} identity C_1 k/(k-1)! fails")
    return ConstantsTable(
        C=float(C), gamma=float(g), c=float(c), beta_psi=float(bp), C1=float(C1),
        D=np.array([float(d) for d in D_closed]),
        Ck=np.array([float(v) for v in Ck_closed]),
    )


# ---------------------------------------------------------------------------
# exact conditional moments and characteristic functions

GeneratorLike = Union[AbsorbedChain, QProcessChain]


@dataclass(frozen=True)
class MomentValues:
    t: float
    m: np.ndarray           # m[k] = E_mu[(int_0^t f)^k 1_{survival}], may underflow
    survival: float
    conditional: np.ndarray  # m[k] / survival, from the shifted generator


def exact_conditional_moments(gen: GeneratorLike, mu, f, k_max: int,
                              t: float) -> MomentValues:
    """All moments up to k_max from one exponential of L + z diag(f) in the
    ring of matrix polynomials truncated after z^k_max.

    Passing the absorbed chain gives conditioned-chain moments (divide by
    the survival mass m_0); passing the Q-process gives its plain moments.
    With the generator shifted by its principal eigenvalue s, conditional
    stays exact however large -s t is, while m and survival (the shifted
    values times e^{s t}) may underflow to 0; with k_max = 0 the survival
    mass is the only result, so its underflow raises.  A t whose squaring
    phase has a rounding floor above ROUNDING_FLOOR raises, and so does a
    result that is not finite.
    """
    L, s = shifted_generator(gen)
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    if not 0 <= k_max <= K_MAX:
        raise ValidationError(f"k_max must lie in [0, {K_MAX}]")
    if t < 0:
        raise ValidationError("time must be nonnegative")
    fmax = max(1.0, float(np.abs(f).max()))
    if t > 0 and k_max * (np.log(t) + np.log(fmax)) > 700.0:
        raise OverflowGuard(
            f"t^k ||f||^k overflows double precision for k={k_max}, t={t}")
    E = _polynomial_expm(L, f, k_max, t)
    shifted = np.array([factorial(k) for k in range(k_max + 1)]) * (E.sum(axis=2) @ mu)
    if not (np.all(np.isfinite(shifted)) and shifted[0] > 0):
        raise OverflowGuard(f"moments at t={t} are not finite or lost the survival mass "
                            f"(shifted survival {shifted[0]})")
    m = shifted * np.exp(s * t)
    p = float(m[0])
    if k_max == 0 and p <= 0:
        raise OverflowGuard(f"survival mass underflowed at t={t}")
    return MomentValues(t=float(t), m=m, survival=p, conditional=shifted / shifted[0])


# Pade-13 coefficients (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def _poly_mul(A, B):
    """Truncated Cauchy product of two matrix polynomials stored as
    (K+1, n, n) coefficient arrays: C_k = sum_{j <= k} A_j B_{k-j}."""
    C = np.empty_like(A)
    for k in range(len(A)):
        C[k] = A[0] @ B[k]
        for j in range(1, k + 1):
            C[k] += A[j] @ B[k - j]
    return C


def _polynomial_expm(L, f, K: int, t: float) -> np.ndarray:
    """E_0..E_K with e^{t(L + z diag f)} = sum_k E_k z^k mod z^{K+1}, by
    Pade-13 scaling and squaring in the truncated polynomial ring.

    The scaling uses the 1-norm of the block matrix I (x) L + N (x) diag f,
    max_x (sum_y |L_yx| + |f_x|) (exact for K >= 1).  The Pade denominator's
    degree-0 block is factored once, and block forward substitution
    inverts the rest of the denominator.  spectral.squarings gives s and
    refuses a t whose squarings pass the rounding floor."""
    n = L.shape[0]
    s = squarings(t, float((np.abs(L).sum(axis=0) + np.abs(f)).max()), n)
    h = np.ldexp(t, -s)
    X = np.zeros((K + 1, n, n))
    X[0] = h * L
    if K:
        X[1] = np.diag(h * f)
    ident = np.zeros_like(X)
    ident[0] = np.eye(n)
    b = _PADE13
    X2 = _poly_mul(X, X)
    X4 = _poly_mul(X2, X2)
    X6 = _poly_mul(X4, X2)
    U = _poly_mul(X, _poly_mul(X6, b[13] * X6 + b[11] * X4 + b[9] * X2)
                  + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * ident)
    V = (_poly_mul(X6, b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * ident)
    P, Q = V + U, V - U
    lu = lu_factor(Q[0])
    E = np.empty_like(X)
    for k in range(K + 1):
        rhs = P[k].copy()
        for j in range(1, k + 1):
            rhs -= Q[j] @ E[k - j]
        E[k] = lu_solve(lu, rhs)
    for _ in range(s):
        E = _poly_mul(E, E)
    return E


@dataclass(frozen=True)
class MomentReport:
    k: int
    t_grid: np.ndarray
    values: np.ndarray       # m_{2k}/t^k resp. m_{2k+1}/t^{k+1/2}
    limit: float
    errors: np.ndarray
    fitted_rate: float
    bounds: Optional[np.ndarray] = None
    bounds_ok: bool = True
    prefactor_hat: float = float("nan")


def check_even_moment_limit(gen: GeneratorLike, mu, f, k: int, t_grid,
                            sigma2: float,
                            constants: Optional[ConstantsTable] = None,
                            mu_psi: Optional[float] = None) -> MomentReport:
    """Compare m_{2k}(t)/t^k against (2k)! sigma^{2k} / (k! 2^k) on a grid.

    f must already be centered (the theorems are stated for beta(f) = 0).
    When a constants table and mu(psi) are supplied, each error is also
    checked against the explicit bound.
    """
    if k < 1:
        raise ValidationError("even-moment check needs k >= 1")
    t_grid = np.asarray(t_grid, dtype=float)
    limit = factorial(2 * k) * sigma2 ** k / (factorial(k) * 2 ** k)
    vals, errs = [], []
    for t in t_grid:
        mv = exact_conditional_moments(gen, mu, f, 2 * k, t)
        vals.append(mv.m[2 * k] / t ** k)
        errs.append(abs(vals[-1] - limit))
    vals = np.array(vals)
    errs = np.array(errs)
    bounds = None
    ok = True
    if constants is not None and mu_psi is not None:
        bounds = np.array([constants.even_moment_bound(k, mu_psi, t) for t in t_grid])
        ok = bool(np.all(errs <= bounds))
    return MomentReport(k=k, t_grid=t_grid, values=vals, limit=float(limit),
                        errors=errs, fitted_rate=log_slope(np.log(t_grid), errs),
                        bounds=bounds, bounds_ok=ok)


def check_odd_moment_decay(qproc: QProcessChain, mu, f, k: int, t_grid) -> MomentReport:
    """Report m_{2k+1}(t)/t^{k+1/2} on the grid with its fitted decay rate
    and the empirical prefactor max_t |value| sqrt(t)/mu(psi) (the theorem
    fixes only the 1/sqrt(t) speed, not the constant)."""
    t_grid = np.asarray(t_grid, dtype=float)
    mu = np.asarray(mu, dtype=float)
    vals = []
    for t in t_grid:
        mv = exact_conditional_moments(qproc, mu, f, 2 * k + 1, t)
        vals.append(mv.m[2 * k + 1] / t ** (k + 0.5))
    vals = np.array(vals)
    errs = np.abs(vals)
    mu_psi = float(mu @ qproc.psi)
    pref = float(np.max(errs * np.sqrt(t_grid)) / mu_psi) if mu_psi > 0 else float("nan")
    return MomentReport(k=k, t_grid=t_grid, values=vals, limit=0.0, errors=errs,
                        fitted_rate=log_slope(np.log(t_grid), errs), prefactor_hat=pref)


def _tilted_law(L, mu, f, z, t) -> np.ndarray:
    """expm(t (L^T + i z diag f)) mu: the law at t of the chain started from
    mu, weighted by e^{i z int_0^t f(X_s) ds} (complex z allowed).  A t past
    the rounding floor of the squarings raises OverflowGuard."""
    A = L.T + 1j * z * np.diag(f)
    squarings(t, np.abs(A).sum(axis=0).max(), len(mu))
    return expm(t * A) @ mu.astype(complex)


def exact_conditional_charfun(gen: GeneratorLike, mu, f,
                              omega_over_sqrt_t: float, t: float) -> complex:
    """E_mu[e^{i w' int_0^t f(X_s) ds} | survival] with w' = omega/sqrt(t)
    held fixed, via one complex matrix exponential of the shifted generator.
    For a conservative generator the conditioning divisor is 1."""
    if t <= 0:
        raise ValidationError("charfun needs t > 0")
    return _conditional_charfuns(gen, mu, f, [omega_over_sqrt_t], t)[0]


def exact_conditional_charfuns(gen: GeneratorLike, mu, f, omegas, t: float) -> list:
    """exact_conditional_charfun at w' = omega / sqrt(t) for each omega of a
    list, for one t: the shift and the survival mass are computed once,
    then one exponential per omega."""
    if t <= 0:
        raise ValidationError("charfun needs t > 0")
    return _conditional_charfuns(gen, mu, f, [w / np.sqrt(t) for w in omegas], t)


def _conditional_charfuns(gen, mu, f, omegas_over_sqrt_t, t: float) -> list:
    """The charfun at each w' for one t > 0, with the survival mass from
    spectral.semigroup.  A value that is not finite raises, and so does a t
    past the tilted exponentials' rounding floor."""
    L, s = shifted_generator(gen)
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    laws = [_tilted_law(L, mu, f, w, t).sum() for w in omegas_over_sqrt_t]
    p = float((mu @ semigroup(gen, t)).sum())
    if not (p > 0 and np.all(np.isfinite([p, *laws]))):
        raise OverflowGuard(f"characteristic function is not finite at t={t}")
    return [complex(z / p) for z in laws]


def charfun_taylor_moments(gen: GeneratorLike, mu, f, t: float, k_max: int = 4) -> np.ndarray:
    """Moments m_k recovered by numerically differentiating the raw
    characteristic function in w' at 0 (trapezoidal rule on a complex
    circle of radius 0.4 with 32 points; exact for entire functions up to
    roundoff).  Cross-check for exact_conditional_moments."""
    L, s = shifted_generator(gen)
    radius, n_points = 0.4, 32
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    zs = radius * np.exp(2j * np.pi * np.arange(n_points) / n_points)
    vals = np.empty(n_points, dtype=complex)
    for i, z in enumerate(zs):
        vals[i] = _tilted_law(L, mu, f, z, t).sum()
    coef = np.fft.fft(vals) * np.exp(s * t) / n_points / radius ** np.arange(n_points)
    ks = np.arange(k_max + 1)
    return np.real(coef[: k_max + 1] * np.array([factorial(k) for k in ks]) / 1j ** ks)


# ---------------------------------------------------------------------------
# uniform characteristic-function bound

def sup_over_weight_ball(d: np.ndarray, psi: np.ndarray) -> float:
    """sup over real |g| <= psi of |sum_x g(x) d(x)| for complex d, exactly.

    As |z| = max_theta Re(e^{-i theta} z), the sup is the max over theta of
    Re(e^{-i theta} S) with S = sum_x s psi d, s = sign(Re(e^{-i theta} d));
    s changes only at the breakpoints (arg d + pi/2) mod pi.  Flipping one sign
    per breakpoint in increasing order from s at theta = 0+ (sign of Re d, ties
    by Im d) visits every arc's S, so max |S| >= sup, and each S is the value
    of a feasible g, so max |S| <= sup."""
    s = np.sign(np.where(d.real != 0, d.real, d.imag))
    v = psi * s * d  # Re v > 0, or v on the positive imaginary axis
    v = v[np.argsort(np.angle(v))]  # angle = breakpoint - pi/2
    return float(np.abs(v.sum() - 2.0 * np.cumsum(v)).max())  # ends at -S(0+), theta = pi


@dataclass(frozen=True)
class CharfunBoundReport:
    omega: float
    rows: list            # (t, sup_gap, bound, conv_gap)
    all_bounded: bool
    sigma2: float


def check_uniform_charfun_bound(qproc: QProcessChain, cert: ErgodicityCertificate,
                                mu, f, omega: float, t_grid) -> CharfunBoundReport:
    """For each t: the exact sup over ||g||_{L^inf(psi)} <= 1 of

        | E_mu^Q[e^{i omega S_t/sqrt(t)} g(X_t)] - beta(g) E_mu^Q[e^{i omega S_t/sqrt(t)}] |

    (f centered internally, S_t its running integral), checked against
    C mu(psi) e^{-gamma t} + (C |omega|/sqrt(t)) (beta(psi) + C mu(psi)) / gamma
    with the certified constants, plus the distance of the weighted law to
    its Gaussian-limit target beta(g) e^{-sigma^2 omega^2 / 2}."""
    obs = f if isinstance(f, AdditiveObservable) else make_observable(qproc, f)
    ft = obs.f_centered
    mu = np.asarray(mu, dtype=float)
    sigma2 = sigma2_poisson(qproc, obs, with_quadrature=False).sigma2
    C, gamma = cert.C, cert.gamma
    psi = qproc.psi
    mu_psi = float(mu @ psi)
    beta_psi = float(qproc.beta @ psi)
    rows = []
    ok = True
    for t in np.asarray(t_grid, dtype=float):
        wp = omega / np.sqrt(t)
        m = _tilted_law(qproc.q_generator, mu, ft, wp, t)
        z = m.sum()
        sup_gap = sup_over_weight_ball(m - qproc.beta * z, psi)
        bound = C * mu_psi * np.exp(-gamma * t) \
            + (C * abs(omega) / np.sqrt(t)) * (beta_psi + C * mu_psi) / gamma
        conv_gap = sup_over_weight_ball(
            m - qproc.beta * np.exp(-sigma2 * omega ** 2 / 2.0), psi)
        ok = ok and sup_gap <= bound
        rows.append((float(t), float(sup_gap), float(bound), float(conv_gap)))
    return CharfunBoundReport(omega=float(omega), rows=rows, all_bounded=bool(ok),
                              sigma2=float(sigma2))
