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
from .spectral import ErgodicityCertificate, check_time, log_slope, semigroup, squarings

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
    f = np.asarray(f if given is None else given.f, dtype=float)
    if f.shape != (qproc.n,):
        raise ValidationError(f"observable must have length {qproc.n}")
    if not np.max(np.abs(f)) <= 1.0 + 1e-12:  # nan compares false
        raise ValidationError("observable must be finite with max|f| <= 1")
    bf = float(qproc.beta @ f)
    if given is not None and given.beta_f == bf:
        return given
    ft = f - bf
    if np.max(np.abs(ft)) <= 1e-14:
        ft = np.zeros(qproc.n)  # +0.0 throughout: ft * 0 would leave -0.0 where ft < 0
    return AdditiveObservable(f=f, f_centered=ft, beta_f=bf)


# ---------------------------------------------------------------------------
# sigma^2

@dataclass(frozen=True, eq=False)
class VarianceResult:
    sigma2: float
    g: np.ndarray                # Poisson solution, beta(g) = 0
    quadrature_value: float
    error_bound: float           # spectral tail + expm rounding term


def sigma2_poisson(qproc: QProcessChain, f,
                   with_quadrature: bool = True) -> VarianceResult:
    """Green-function route: solve the Poisson equation and fold with beta."""
    obs = make_observable(qproc, f)
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
    quad, _, bound = sigma2_quadrature(qproc, obs) if with_quadrature else (float("nan"),) * 3
    return VarianceResult(sigma2=sigma2, g=g, quadrature_value=quad, error_bound=bound)


def sigma2_quadrature(qproc: QProcessChain, f):
    """(value, H, bound): 2 * int_0^H Cov_beta(f(X_0), f(X_s)) ds with H =
    40/gamma and its error bound (truncated tail + rounding term).  Van
    Loan: the last column of expm(H [[L_Q, ft], [0, 0]]) is int_0^H e^{s
    L_Q} ft ds for the centred ft, so one exponential integrates the
    autocovariance beta(ft e^{s L_Q} ft) over [0, H]."""
    ft = make_observable(qproc, f).f_centered
    H = 40.0 / qproc.triple.gamma
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

@dataclass(frozen=True, eq=False)
class ConstantsTable:
    C: float
    gamma: float
    c: float
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
        C=float(C), gamma=float(g), c=float(c), C1=float(C1),
        D=np.array([float(d) for d in D_closed]),
        Ck=np.array([float(v) for v in Ck_closed]),
    )


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
    """All moments up to k_max at each time of a grid t, from the
    exponential of L + z diag(f) in the ring of matrix polynomials truncated
    after z^k_max; a scalar t is a grid of one and returns its MomentValues,
    a sequence returns a list in the order of t.

    Passing the absorbed chain gives conditioned-chain moments (divide by
    the survival mass m_0); passing the Q-process gives its plain moments.
    With the generator shifted by its principal eigenvalue s, conditional
    stays exact however large -s t is, while m and survival (the shifted
    values times e^{s t}) may underflow to 0; with k_max = 0 the survival
    mass is the only result, so its underflow raises.  A t whose squaring
    phase has a rounding floor above ROUNDING_FLOOR raises, and so does a
    result that is not finite.
    """
    L, s = gen.shifted
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    times = [float(v) for v in np.ravel(t)]
    if not 0 <= k_max <= K_MAX:
        raise ValidationError(f"k_max must lie in [0, {K_MAX}]")
    fmax = max(1.0, float(np.abs(f).max()))
    for v in times:
        check_time(v)
        if v > 0 and k_max * (np.log(v) + np.log(fmax)) > 700.0:
            raise OverflowGuard(
                f"t^k ||f||^k overflows double precision for k={k_max}, t={v}")
    factorials = np.array([factorial(k) for k in range(k_max + 1)])
    shifted = {v: factorials * (E.sum(axis=2) @ mu)
               for v, E in _polynomial_expm(L, f, k_max, times)}
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


def _polynomial_expm(L, f, K: int, times):
    """(t, E) for each distinct t of times, with E_0..E_K the coefficients of
    e^{t(L + z diag f)} = sum_k E_k z^k mod z^{K+1}, by Pade-13 scaling and
    squaring in the truncated polynomial ring.

    The scaling uses the 1-norm of the block matrix I (x) L + N (x) diag f,
    max_x (sum_y |L_yx| + |f_x|) (exact for K >= 1).  spectral.squarings
    gives each t its s, in the order of times, and refuses a t whose
    squarings pass the rounding floor.  E(t) is the Pade approximant at
    the step h = t / 2^s squared s times, so times that share h (a dyadic
    family t, 2t, 4t, ... whose s grow by one per doubling) share one
    approximant: each later time is read off the squaring loop of the
    smallest, with the same products in the same order as on its own, so
    bit for bit.  Grouping by the h each time computes checks s(2t) =
    s(t) + 1 rather than assuming it: a doubling whose s does not grow by
    one has another h and gets its own approximant.  Each E is yielded
    before it is squared again, and only the current one is kept."""
    n = L.shape[0]
    norm = float((np.abs(L).sum(axis=0) + np.abs(f)).max())
    families = {}
    for t in dict.fromkeys(times):
        s = squarings(t, norm, n)
        families.setdefault(float(np.ldexp(t, -s)), []).append((s, t))
    for h, members in families.items():
        E = _pade13(L, f, K, h)
        done = 0
        for s, t in sorted(members):
            for _ in range(s - done):
                E = _poly_mul(E, E)
            done = s
            yield t, E


def _pade13(L, f, K: int, h: float) -> np.ndarray:
    """Pade-13 approximant of e^{h(L + z diag f)} mod z^{K+1}, for a step h
    inside its accuracy radius.  The denominator's degree-0 block is
    factored once, and block forward substitution inverts the rest of the
    denominator."""
    n = L.shape[0]
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
    return E


def _positive_times(t_grid) -> np.ndarray:
    """t_grid as an array, refused unless every time is finite and positive:
    the normalised checks divide by powers of t."""
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all((t_grid > 0) & (t_grid < np.inf)):
        raise ValidationError(f"normalised checks need finite times t > 0, got {t_grid}")
    return t_grid


@dataclass(frozen=True, eq=False)
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


def check_even_moment_limit(qproc: QProcessChain, mu, f, k: int, t_grid,
                            sigma2: float,
                            constants: Optional[ConstantsTable] = None) -> MomentReport:
    """Compare the Q-process's m_{2k}(t)/t^k with (2k)! sigma^{2k} / (k! 2^k) on a grid.

    f must already be centered (the theorems are stated for beta(f) = 0).
    When a constants table is supplied, each error is also checked against
    the explicit bound with mu(psi) for the Q-process's psi.
    """
    if k < 1:
        raise ValidationError("even-moment check needs k >= 1")
    t_grid = _positive_times(t_grid)
    limit = factorial(2 * k) * sigma2 ** k / (factorial(k) * 2 ** k)
    mvs = exact_conditional_moments(qproc, mu, f, 2 * k, t_grid)
    vals = np.array([mv.m[2 * k] / t ** k for mv, t in zip(mvs, t_grid)])
    errs = np.abs(vals - limit)
    bounds = None
    ok = True
    if constants is not None:
        mu_psi = float(np.asarray(mu, dtype=float) @ qproc.psi)
        bounds = np.array([constants.even_moment_bound(k, mu_psi, t) for t in t_grid])
        ok = bool(np.all(errs <= bounds))
    return MomentReport(k=k, t_grid=t_grid, values=vals, limit=float(limit),
                        errors=errs, fitted_rate=log_slope(np.log(t_grid), errs),
                        bounds=bounds, bounds_ok=ok)


def check_odd_moment_decay(qproc: QProcessChain, mu, f, k: int, t_grid) -> MomentReport:
    """Report m_{2k+1}(t)/t^{k+1/2} on the grid with its fitted decay rate
    and the empirical prefactor max_t |value| sqrt(t)/mu(psi) (the theorem
    fixes only the 1/sqrt(t) speed, not the constant)."""
    t_grid = _positive_times(t_grid)
    mu = np.asarray(mu, dtype=float)
    mvs = exact_conditional_moments(qproc, mu, f, 2 * k + 1, t_grid)
    vals = np.array([mv.m[2 * k + 1] / t ** (k + 0.5) for mv, t in zip(mvs, t_grid)])
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


def exact_conditional_charfuns(gen: GeneratorLike, mu, f, omegas, t: float) -> list:
    """E_mu[e^{i w' int_0^t f(X_s) ds} | survival] at w' = omega / sqrt(t)
    for each omega of a list, for one t > 0: the shift and the survival mass
    are computed once, then one complex exponential of the shifted generator
    per omega.  For a conservative generator the conditioning divisor is 1."""
    if t <= 0:
        raise ValidationError("charfun needs t > 0")
    return _conditional_charfuns(gen, mu, f, [w / np.sqrt(t) for w in omegas], t)


def _conditional_charfuns(gen, mu, f, omegas_over_sqrt_t, t: float) -> list:
    """The charfun at each w' for one t > 0, with the survival mass from
    spectral.semigroup.  A value that is not finite raises, and so does a t
    past the tilted exponentials' rounding floor."""
    L, _ = gen.shifted
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    laws = [_tilted_law(L, mu, f, w, t).sum() for w in omegas_over_sqrt_t]
    p = float((mu @ semigroup(gen, t)).sum())
    if not (p > 0 and np.all(np.isfinite([p, *laws]))):
        raise OverflowGuard(f"characteristic function is not finite at t={t}")
    return [complex(z / p) for z in laws]


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
    rows: list            # (t, sup_gap, bound, conv_gap)
    all_bounded: bool


def check_uniform_charfun_bound(qproc: QProcessChain, cert: ErgodicityCertificate,
                                mu, f, omega: float, t_grid,
                                sigma2: float) -> CharfunBoundReport:
    """For each t: the exact sup over ||g||_{L^inf(psi)} <= 1 of

        | E_mu^Q[e^{i omega S_t/sqrt(t)} g(X_t)] - beta(g) E_mu^Q[e^{i omega S_t/sqrt(t)}] |

    (f centered internally, S_t its running integral), checked against
    C mu(psi) e^{-gamma t} + (C |omega|/sqrt(t)) (beta(psi) + C mu(psi)) / gamma
    with the certified constants, plus the distance of the weighted law to
    its Gaussian-limit target beta(g) e^{-sigma^2 omega^2 / 2} for the
    given sigma^2 (the run's Poisson value)."""
    t_grid = _positive_times(t_grid)
    ft = make_observable(qproc, f).f_centered
    mu = np.asarray(mu, dtype=float)
    C, gamma = cert.C, cert.gamma
    psi = qproc.psi
    mu_psi = float(mu @ psi)
    beta_psi = float(qproc.beta @ psi)
    rows = []
    ok = True
    for t in t_grid:
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
    return CharfunBoundReport(rows=rows, all_bounded=bool(ok))
