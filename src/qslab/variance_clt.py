"""Asymptotic variance and exact conditional moment / characteristic-function
oracles for additive functionals.

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
product is a truncated Cauchy product of n x n blocks.  A generator whose
exponentials spectral.exponential_basis reads off its symmetric eigenbasis
runs the same ring in that basis, where every block is symmetric and the
degree-0 block diagonal: a squaring at K = 4 takes 4 n x n products
instead of 15.  Any other generator keeps the original basis.  The
characteristic-function oracles exponentiate the generator with a complex
perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Union

import numpy as np
from scipy.linalg import expm, lu_factor, lu_solve

from .chain_model import AbsorbedChain
from .errors import OverflowGuard, SingularSolve, ValidationError
from .qprocess import QProcessChain
from .spectral import check_time, exponential_basis, semigroup, squarings

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
    after z^k_max, in gen's symmetric basis when spectral.exponential_basis
    gives one; a scalar t is a grid of one and returns its MomentValues,
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
    basis = exponential_basis(gen)
    if basis is None:  # m_k = k! mu E_k 1
        shifted = {v: factorials * (E.sum(axis=2) @ mu)
                   for v, E in _polynomial_expm(L, f, k_max, times)}
    else:  # E_k in the basis: m_k = k! (mu / h)^T U E_k U^T h
        _, U, h = basis
        a, b = (mu / h) @ U, U.T @ h
        shifted = {v: factorials * ((E @ b) @ a)
                   for v, E in _polynomial_expm(L, f, k_max, times, basis)}
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


def _poly_mul(A, B, da=K_MAX, db=K_MAX):
    """Truncated Cauchy product of two matrix polynomials stored as
    (K+1, n, n) coefficient arrays: C_k = sum_{j <= k} A_j B_{k-j}, over
    the pairs whose blocks lie within A's top degree da and B's db (the
    blocks above are zero)."""
    C = np.empty_like(A)
    for k in range(len(A)):
        C[k] = sum(A[j] @ B[k - j] for j in range(max(0, k - db), min(k, da) + 1))
    return C


def _poly_solve(Q, P):
    """Q^{-1} P in the ring: the degree-0 block of Q is factored once, and
    block forward substitution inverts the rest."""
    lu = lu_factor(Q[0])
    E = np.empty_like(P)
    for k in range(len(P)):
        rhs = P[k].copy()
        for j in range(1, k + 1):
            rhs -= Q[j] @ E[k - j]
        E[k] = lu_solve(lu, rhs)
    return E


_FLUSH = np.finfo(float).eps ** 2  # _sym_mul's flush, relative to a block's largest entry


def _sym_mul(A, B, da=K_MAX, db=K_MAX):
    """_poly_mul, top degrees included, for polynomials in one element with
    symmetric blocks and a diagonal degree-0 block, as every element of the
    basis route is: the products with a degree-0 block are row and column
    scalings, and A A needs A_i A_j only for i <= j, since A_j A_i is its
    transpose, so that each block of a square is a sum T + T^T, symmetric
    to the bit.  The modes that decay fastest carry entries that underflow
    as the squarings go on; each below eps^2 times its block's largest is
    flushed to 0, far below the rounding of the sums it would enter, so that
    no product meets subnormal operands, which slow a BLAS product about
    thirtyfold."""
    a0, b0 = np.diagonal(A[0]), np.diagonal(B[0])
    C = np.empty_like(A)
    C[0] = np.diag(a0 * b0)
    for k in range(1, len(A)):
        if A is B:  # T = A_0 A_k + sum_{i < k/2} A_i A_{k-i} + A_{k/2}^2 / 2
            T = a0[:, None] * A[k]
            for i in range(max(1, k - da), (k + 1) // 2):
                T += A[i] @ A[k - i]
            if k % 2 == 0 and k // 2 <= da:
                T += 0.5 * (A[k // 2] @ A[k // 2])
            np.add(T, T.T, out=C[k])
        else:
            np.multiply(a0[:, None], B[k], out=C[k])
            C[k] += A[k] * b0
            for i in range(max(1, k - db), min(k - 1, da) + 1):
                C[k] += A[i] @ B[k - i]
    for block in C:
        size = np.abs(block)
        block[size < _FLUSH * size.max()] = 0.0
    return C


def _sym_solve(Q, P):
    """_poly_solve for a diagonal degree-0 block of Q, which row scaling
    inverts."""
    q0 = np.diagonal(Q[0])
    E = np.empty_like(P)
    E[0] = np.diag(np.diagonal(P[0]) / q0)
    e0 = np.diagonal(E[0])
    for k in range(1, len(P)):
        rhs = P[k] - Q[k] * e0
        for j in range(1, k):
            rhs -= Q[j] @ E[k - j]
        E[k] = rhs / q0[:, None]
    return E


def _polynomial_expm(L, f, K: int, times, basis=None):
    """(t, E) for each distinct t of times, with E_0..E_K the coefficients of
    e^{t(L + z diag f)} = sum_k E_k z^k mod z^{K+1}, by Pade-13 scaling and
    squaring in the truncated polynomial ring.

    Given L's symmetric basis (w, U, h), L = diag(h)^{-1} U diag(w - w_max)
    U^T diag(h), the same ring runs in that basis: X = diag(w - w_max) +
    z U^T diag(f) U, whose exponential's E_k give e^{t(L + z diag f)} =
    diag(h)^{-1} U (sum_k E_k z^k) U^T diag(h).  Each element the scheme
    forms is a polynomial in X, so its degree-0 block is diagonal and every
    block is symmetric (_sym_mul): a squaring at K = 4 takes 4 n x n
    products instead of 15, and at K = 2 one instead of 6.

    The scaling uses the 1-norm of the block matrix I (x) L + N (x) diag f,
    max_x (sum_y |L_yx| + |f_x|) (exact for K >= 1), in the original basis
    for either route, so that both take the same squarings.
    spectral.squarings gives each t its s, in the order of times, and
    refuses a t whose squarings pass the rounding floor.  E(t) is the Pade
    approximant at the step h = t / 2^s squared s times, so times that share
    h (a dyadic family t, 2t, 4t, ... whose s grow by one per doubling)
    share one approximant: each later time is read off the squaring loop of
    the smallest, with the same products in the same order as on its own,
    so bit for bit.  Grouping by the h each time computes checks s(2t) =
    s(t) + 1 rather than assuming it: a doubling whose s does not grow by
    one has another h and gets its own approximant.  Each E is yielded
    before it is squared again, and only the current one is kept."""
    n = L.shape[0]
    norm = float((np.abs(L).sum(axis=0) + np.abs(f)).max())
    X = np.zeros((K + 1, n, n))
    if basis is None:
        X[0] = L
        if K:
            X[1] = np.diag(f)
        mul, solve = _poly_mul, _poly_solve
    else:
        w, U, _ = basis
        X[0] = np.diag(w - w[-1])
        if K:
            X[1] = (U.T * f) @ U
        mul, solve = _sym_mul, _sym_solve
    families = {}
    for t in dict.fromkeys(times):
        s = squarings(t, norm, n)
        families.setdefault(float(np.ldexp(t, -s)), []).append((s, t))
    for h, members in families.items():
        E = _pade13(X, h, mul, solve)
        done = 0
        for s, t in sorted(members):
            for _ in range(s - done):
                E = mul(E, E)
            done = s
            yield t, E


def _pade13(X, h: float, mul, solve) -> np.ndarray:
    """Pade-13 approximant of e^{hX} for a ring element X and a step h
    inside its accuracy radius, with the ring's product and its solve for
    the denominator.  X has no block above degree 1, so X^k none above k:
    each product skips the pairs of blocks past its operands' top degrees."""
    X = h * X
    ident = np.zeros_like(X)
    ident[0] = np.eye(X.shape[1])
    b = _PADE13
    X2 = mul(X, X, 1, 1)
    X4 = mul(X2, X2, 2, 2)
    X6 = mul(X4, X2, 4, 2)
    U = mul(X, mul(X6, b[13] * X6 + b[11] * X4 + b[9] * X2, 6, 6)
            + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * ident, 1)
    V = (mul(X6, b[12] * X6 + b[10] * X4 + b[8] * X2, 6, 6)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * ident)
    return solve(V - U, V + U)


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
