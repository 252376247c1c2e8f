"""Quasi-stationary eigen-objects and the exponential-ergodicity certificate.

solve_spectral returns the Perron triple of -L: the survival decay rate
lambda0, the quasi-stationary law alpha (left eigenvector, sums to 1), the
right eigenfunction eta (alpha(eta) = 1) and the spectral gap gamma.
certify_ergodicity measures, on a time grid, the smallest constant C with

    || e^{lambda0 t} delta_x P_t - eta(x) alpha ||_psi1  <=  C psi1(x) e^{-gamma t}

and stores twice the measured maximum as the certified C (grid certification
cannot exclude slightly larger deviations between grid points; the factor-2
slack is recorded in the certificate).  exponential_basis() is the one
place that picks how an exponential of a generator is computed: from a
reversible chain's symmetric eigenbasis, or by exponentials(), the one
Pade-13 scaling and squaring, in the moment oracle's polynomial ring or at
its degree 0 for a plain e^{tA}, whose squarings() set the rounding floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .chain_model import AbsorbedChain
from .errors import (BudgetExceeded, DegenerateGap, NoKilling, OverflowGuard, UnresolvedDecay,
                     ValidationError)

_SLACK_FACTOR = 2.0
MAX_GRID_POINTS = 10 ** 5  # per default grid: certify on m2sym took 3.7 s at 10^5 (README)
ROUNDING_FLOOR = 1e-6  # largest rounding floor of an oracle's result that a run accepts
# the 1-norm up to which the Pade-13 approximant is accurate to double
# precision without scaling (Higham 2005, Table 2.3)
_THETA13 = 5.371920351148152


@dataclass(frozen=True, eq=False)
class SpectralTriple:
    lambda0: float
    alpha: np.ndarray
    eta: np.ndarray
    gamma: float

    def __post_init__(self):
        self.alpha.setflags(write=False)
        self.eta.setflags(write=False)


@dataclass(frozen=True)
class ErgodicityCertificate:
    """Grid-based certificate: the bound holds at every (x, t) on the grid of
    profile by construction with C = slack_factor * worst_ratio; it is not a
    proof for times off the grid."""

    C: float
    gamma: float
    worst_ratio: float
    slack_factor: float = _SLACK_FACTOR
    argmax_t: float = float("nan")
    profile: tuple = ()  # (t, ratio) at each grid time, as certification_profile


def solve_spectral(chain: AbsorbedChain) -> SpectralTriple:
    """Leading eigen-triple of the killed generator with the normalizations
    sum(alpha) = 1 and alpha(eta) = 1; gamma from the chain's dense spectrum."""
    if chain.n < 2:
        raise DegenerateGap("a one-state chain has no spectral gap")
    L = chain.sub_generator
    w, vl, vr = chain.eigen
    order = np.argsort(-w.real)
    lead = order[0]
    lambda0 = -w[lead].real
    gamma = -w[order[1]].real - lambda0
    alpha = vl[:, lead].real
    eta = vr[:, lead].real
    scale = max(1.0, np.abs(L).max())
    if lambda0 <= 1e-12 * scale:
        if not chain.killing.any():
            raise NoKilling(f"leading eigenvalue {-lambda0} is not strictly negative")
        # at this scale -lambda0 is the dense spectrum's rounding, not the chain's rate
        raise UnresolvedDecay(f"the computed leading eigenvalue {-lambda0} is not below "
                              f"-1e-12 ||L|| = {-1e-12 * scale:g}, the dense spectrum's "
                              "resolution, so the decay rate is not resolved")
    if not np.isfinite(gamma) or gamma <= 1e-8 * lambda0:
        raise DegenerateGap(f"spectral gap {gamma} below tolerance")
    if alpha.sum() < 0:
        alpha = -alpha
    if np.any(alpha < -1e-10 * np.abs(alpha).max()):
        raise DegenerateGap("left Perron vector changes sign (defective leading pair)")
    alpha = np.clip(alpha, 0.0, None)
    alpha = alpha / alpha.sum()
    if eta.sum() < 0:
        eta = -eta
    eta = eta / (alpha @ eta)
    res_l = np.abs(alpha @ L + lambda0 * alpha).max()
    res_r = np.abs(L @ eta + lambda0 * eta).max()
    if chain.reversible:
        # alpha(eta) = 1 makes eta huge where a drifted chain's alpha is
        # concentrated: each residual relative to its vector's largest entry.
        # eig's stays absolute, since on a chain far from normal a small
        # relative residual is only a backward error
        res_l, res_r = res_l / alpha.max(), res_r / np.abs(eta).max()
    if max(res_l, res_r) > 1e-10 * scale:
        raise DegenerateGap(f"eigen-residual {max(res_l, res_r)} exceeds tolerance")
    return SpectralTriple(lambda0=float(lambda0), alpha=alpha, eta=eta, gamma=float(gamma))


def log_slope(x, y) -> float:
    """Least-squares slope of log y against x over the points with y > 0;
    nan when those points hold fewer than two distinct x, where no line
    is determined.  Pass log x for a power-law rate."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pos = y > 0
    if np.unique(x[pos]).size >= 2:
        return float(np.polyfit(x[pos], np.log(y[pos]), 1)[0])
    return float("nan")


def default_time_grid(gamma: float, n_points: int = 12, end=None) -> np.ndarray:
    """{0} followed by a geometric sweep from 0.1/gamma out to end, by
    default 6/gamma; more than MAX_GRID_POINTS points raise BudgetExceeded
    before the grid is built."""
    if n_points > MAX_GRID_POINTS:
        raise BudgetExceeded(f"{n_points} grid times exceed the ceiling of {MAX_GRID_POINTS}")
    end = 6.0 / gamma if end is None else end
    return np.concatenate([[0.0], np.geomspace(0.1 / gamma, end, n_points)])


def check_time(t: float) -> None:
    """Refuse a negative or non-finite time t for an exponential e^{tA}."""
    if not 0 <= t < np.inf:
        raise ValidationError(f"time must be finite and nonnegative, got {t}")


def squarings(t: float, norm: float, n: int) -> int:
    """Squaring count s of Pade-13 scaling and squaring for e^{tA} with
    ||A||_1 = norm on n states, the smallest s with t norm / 2^s <= theta13.
    Each squaring can double the relative rounding error, so a t with
    2^s n eps > ROUNDING_FLOOR raises OverflowGuard, after check_time."""
    check_time(t)
    s = 0
    if t * norm > _THETA13:  # log2 of each factor, so a huge t cannot overflow
        s = int(np.ceil(np.log2(t) + np.log2(norm / _THETA13)))
    if s > np.log2(ROUNDING_FLOOR / (n * np.finfo(float).eps)):
        raise OverflowGuard(f"at t={t} the {s} squarings have a rounding floor "
                            f"2^s n eps above {ROUNDING_FLOOR:g}")
    return s


def exponential_basis(gen):
    """The symmetric basis (w, U, h) that exponentials of gen are read off,
    or None when they come from the Pade route.  Read off the basis, entry
    (x, y) of an exponential carries eigh's rounding times h_y / h_x, so a
    reversible gen whose n eps max h / min h exceeds ROUNDING_FLOOR takes
    the Pade route too, like every gen that is not reversible."""
    basis = gen.symmetric_basis
    if basis is None:
        return None
    h = basis[2]
    return basis if gen.n * np.finfo(float).eps * h.max() <= ROUNDING_FLOOR * h.min() else None


# Pade-13 coefficients (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def _poly_mul(A, B, da=np.inf, db=np.inf, *, out):
    """Truncated Cauchy product of two matrix polynomials stored as
    (K+1, n, n) coefficient arrays, into out: C_k = sum_{j <= k} A_j
    B_{k-j}, over the pairs whose blocks lie within A's top degree da and
    B's db (the blocks above are zero).  At K = 0, the matrix product."""
    for k in range(len(A)):
        out[k] = sum(A[j] @ B[k - j] for j in range(max(0, k - db), min(k, da) + 1))
    return out


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


def _pade13(X, h: float, mul, solve) -> np.ndarray:
    """Pade-13 approximant of e^{hX} for a ring element X and a step h
    inside its accuracy radius, with the ring's product (which takes out=)
    and its solve for the denominator, in one workspace of six elements.
    X has no block above degree 1, so X^k none above k: each product skips
    the pairs of blocks past its operands' top degrees."""
    X1, X2, X4, X6, P, T = np.empty((6,) + X.shape, X.dtype)
    np.multiply(X, h, out=X1)
    mul(X1, X1, 1, 1, out=X2)
    mul(X2, X2, 2, 2, out=X4)
    mul(X4, X2, 4, 2, out=X6)

    def half(c, out, spare):  # X6 (c0 X6 + c1 X4 + c2 X2) + c3 X6 + c4 X4 + c5 X2 + c6 I
        np.multiply(X6, c[0], out=spare)
        for ck, Xk in zip(c[1:3], (X4, X2)):
            spare += np.multiply(Xk, ck, out=out)
        mul(X6, spare, 6, 6, out=out)
        for ck, Xk in zip(c[3:6], (X6, X4, X2)):
            out += np.multiply(Xk, ck, out=spare)
        out[0].flat[::X.shape[1] + 1] += c[6]
        return out

    U = mul(X1, half(_PADE13[13::-2], T, P), 1, out=P)
    V = half(_PADE13[12::-2], T, X1)
    return solve(np.subtract(V, U, out=X2), np.add(V, U, out=X4))


def exponentials(X, norm: float, times, mul=_poly_mul, solve=_poly_solve):
    """(t, e^{tX}) for each distinct t of times, for an element X of a ring
    of (K+1, n, n) matrix polynomials truncated after degree K (by default
    the Cauchy products), with no block above degree 1 and 1-norm norm, by
    Pade-13 scaling and squaring (Higham 2005).  squarings() gives each t
    its s, in the order of times, and refuses a t past the rounding floor;
    E(t) is the approximant at h = t / 2^s squared s times.  Times that
    share h (a dyadic family t, 2t, 4t, ... as computed) share one
    approximant: each later one is read off the squaring loop of the
    smallest with the same products in the same order, so bit for bit.  The
    squarings alternate between two buffers: E is valid until the next."""
    families = {}
    for t in dict.fromkeys(times):
        s = squarings(t, norm, X.shape[1])
        families.setdefault(float(np.ldexp(t, -s)), []).append((s, t))
    for h, members in families.items():
        E = _pade13(X, h, mul, solve)
        spare = np.empty_like(E)
        done = 0
        for s, t in sorted(members):
            for _ in range(s - done):
                E, spare = mul(E, E, out=spare), E
            done = s
            yield t, E


def exponential(A, t: float) -> np.ndarray:
    """e^{tA} for a real or complex n x n A: exponentials() of A[None] at
    degree 0, which refuses a t past the rounding floor (after check_time)."""
    (_, E), = exponentials(A[None], float(np.abs(A).sum(axis=0).max()), [t])
    return E[0]


def semigroup(gen, t: float, lead=None) -> np.ndarray:
    """e^{tA} for (A, s) = gen.shifted, the generator of an absorbed chain
    or a Q-process shifted by its leading eigenvalue, so that the leading
    mode neither grows nor decays; given lead, the limit of that
    exponential, the deviation from it.

    A reversible gen's symmetric basis (w, U, h) gives (U / h) diag(e^{t(w -
    w_max)}) (U h)^T, and the deviation without its leading mode rather than
    by a subtraction, whose rounding e^{gamma t} would amplify.  Entry (x, y)
    carries eigh's rounding times h_y / h_x.  A deviation has that factor in
    its own scale, so it takes any reversible gen's basis; an exponential
    takes the one exponential_basis() gives, and otherwise comes from
    exponential(), whose squarings() refuses a t past the rounding floor.
    check_time comes first."""
    check_time(t)
    basis = gen.symmetric_basis if lead is not None else exponential_basis(gen)
    if basis is not None:
        w, U, h = basis
        weights = np.exp(t * (w - w[-1]))  # eigh sorts w ascending
        if lead is not None:
            weights[-1] = 0.0
        # modes below eps times the largest add less than the sum's rounding
        keep = weights >= np.finfo(float).eps * weights.max()
        V = U[:, keep] * np.sqrt(weights[keep])
        return (V / h[:, None]) @ (V * h[:, None]).T
    E = exponential(gen.shifted[0], t)
    return E if lead is None else E - lead


def certification_profile(chain: AbsorbedChain, triple: SpectralTriple, psi1,
                          t_grid):
    """Per-time worst deviation ratios e^{gamma t} max_x ||...||_psi1/psi1(x)."""
    psi1 = np.asarray(psi1, dtype=float)
    target = np.outer(triple.eta, triple.alpha)
    out = []
    for t in np.asarray(t_grid, dtype=float):
        dev = semigroup(chain, t, lead=target)
        ratios = (np.abs(dev) @ psi1) / psi1 * np.exp(triple.gamma * t)
        out.append((float(t), float(ratios.max())))
    return out


def certify_ergodicity(chain: AbsorbedChain, triple: SpectralTriple, psi1,
                       t_grid) -> ErgodicityCertificate:
    """Measure the weighted deviation ratio on the grid and certify C.

    The grid must be nonempty, increasing, and reach (essentially) 5/gamma;
    including t = 0 is recommended since the ratio there already forces
    C >= max_x ||delta_x - eta(x) alpha||_psi1 / psi1(x).  A grid is refused
    when it ends where the rounding floor n eps e^{gamma t} of the ratio
    exceeds 1e-6 (about 22/gamma on a few states): by Pade the ratio would
    measure rounding, not the deviation.  A reversible chain's basis
    does not amplify rounding so, but the same grids are refused for every
    chain, so that the accepted grids do not depend on how e^{tL} is computed.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    gamma = triple.gamma
    if t_grid.size == 0 or np.any(np.diff(t_grid) <= 0):
        raise ValidationError("certification grid must be nonempty and increasing")
    if t_grid[-1] < 0.95 * 5.0 / gamma:
        raise ValidationError(
            f"certification grid must reach 5/gamma = {5.0 / gamma:.3g}, got {t_grid[-1]:.3g}")
    # the ratio multiplies an exponential's rounding, about n eps, by e^{gamma t}
    if np.log(chain.n * np.finfo(float).eps) + gamma * t_grid[-1] > np.log(ROUNDING_FLOOR):
        raise OverflowGuard(
            f"at t = {t_grid[-1]:.3g} the deviation ratio's rounding floor "
            f"n eps e^(gamma t) exceeds {ROUNDING_FLOOR:g}")
    profile = certification_profile(chain, triple, psi1, t_grid)
    if not np.all(np.isfinite([r for _, r in profile])):
        raise OverflowGuard(f"the deviation ratio is not finite by t = {t_grid[-1]:.3g}")
    worst_t, worst = max(profile, key=lambda tr: tr[1])
    return ErgodicityCertificate(
        C=_SLACK_FACTOR * worst,
        gamma=gamma,
        worst_ratio=worst,
        argmax_t=worst_t,
        profile=tuple(profile),
    )
