"""Asymptotic variance and exact conditional moment / characteristic-function
oracles for additive functionals.

sigma2_poisson solves L_Q g = -f_centered with beta(g) = 0 (one bordered
linear solve) and returns the float sigma^2 = 2 beta(f_centered * g); the
independent cross-check integrates the stationary autocovariance over
[0, 40/gamma] with one block exponential (Van Loan) and bounds its error by
the spectral tail plus a rounding term.  exact_conditional_moments reads the moments
m_k(t) = E_mu[(int_0^t f)^k 1_{survival}] off the exponential of the shifted
generator perturbed by z diag(f), taken in the ring of n x n matrix
polynomials in z truncated after z^K: e^{t(L + z diag f)} = sum_k E_k z^k
mod z^{K+1}, and m_k = k! mu E_k 1 (Feynman-Kac).  This is the block
upper-bidiagonal augmented generator with its k-th block divided by k!,
exponentiated by spectral.exponentials so that every product is a truncated
Cauchy product of n x n blocks.  A generator whose exponentials
spectral.exponential_basis reads off its symmetric eigenbasis runs the same
ring in that basis, where every block is symmetric and the degree-0 block
diagonal: a squaring at K = 4 takes 4 n x n products instead of 15.  Any
other generator keeps the original basis.  spectral.squarings refuses,
before any product, a t past its rounding floor, t ||X||_1 > theta13 2^s
~ 1e10 at its largest s, so the moments stay below ~1e80 at K = 8.  The Van Loan block and the charfun's complex generators take the
same engine at degree 0 (spectral.exponential).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Union

import numpy as np

from .chain_model import AbsorbedChain
from .errors import OverflowGuard, SingularSolve, ValidationError
from .qprocess import QProcessChain
from .spectral import (_poly_mul, _poly_solve, exponential, exponential_basis, exponentials,
                       semigroup)

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


_FLUSH = np.finfo(float).eps ** 2  # _sym_mul's flush, relative to a block's largest entry


def _sym_mul(A, B, da=K_MAX, db=K_MAX, *, out):
    """_poly_mul, top degrees and out included, for polynomials in one
    element with symmetric blocks and a diagonal degree-0 block, as every
    element of the basis route is: the products with a degree-0 block are
    row and column scalings, and A A needs A_i A_j only for i <= j, since
    A_j A_i is its transpose, so that each block of a square is a sum
    T + T^T, symmetric to the bit.  The modes that decay fastest carry entries that underflow
    as the squarings go on; each below eps^2 times its block's largest is
    flushed to 0, far below the rounding of the sums it would enter, so that
    no product meets subnormal operands, which slow a BLAS product about
    thirtyfold."""
    a0, b0 = np.diagonal(A[0]), np.diagonal(B[0])
    out[0] = np.diag(a0 * b0)
    for k in range(1, len(A)):
        if A is B:  # T = A_0 A_k + sum_{i < k/2} A_i A_{k-i} + A_{k/2}^2 / 2
            T = a0[:, None] * A[k]
            for i in range(max(1, k - da), (k + 1) // 2):
                T += A[i] @ A[k - i]
            if k % 2 == 0 and k // 2 <= da:
                T += 0.5 * (A[k // 2] @ A[k // 2])
            np.add(T, T.T, out=out[k])
        else:
            np.multiply(a0[:, None], B[k], out=out[k])
            out[k] += A[k] * b0
            for i in range(max(1, k - db), min(k - 1, da) + 1):
                out[k] += A[i] @ B[k - i]
    for block in out:
        size = np.abs(block)
        block[size < _FLUSH * size.max()] = 0.0
    return out


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
    """spectral.exponentials of X = L + z diag f in the ring truncated after
    z^K: (t, E) for each distinct t of times, with e^{tX} = sum_k E_k z^k.
    Given L's symmetric basis (w, U, h), L = diag(h)^{-1} U diag(w - w_max)
    U^T diag(h), it runs with _sym_mul on X = diag(w - w_max) + z U^T diag(f)
    U, whose E_k give e^{t(L + z diag f)} = diag(h)^{-1} U (sum_k E_k z^k)
    U^T diag(h).  Both routes scale by the original basis's 1-norm of
    I (x) L + N (x) diag f, max_x (sum_y |L_yx| + |f_x|) (exact for K >= 1),
    so take the same squarings."""
    n = L.shape[0]
    norm = float((np.abs(L).sum(axis=0) + np.abs(f)).max())
    X = np.zeros((K + 1, n, n))
    if basis is None:
        X[0] = L
        if K:
            X[1] = np.diag(f)
        return exponentials(X, norm, times, _poly_mul, _poly_solve)
    w, U, _ = basis
    X[0] = np.diag(w - w[-1])
    if K:
        X[1] = (U.T * f) @ U
    return exponentials(X, norm, times, _sym_mul, _sym_solve)


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
