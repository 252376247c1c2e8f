"""Quasi-stationary eigen-objects and the exponential-ergodicity certificate.

solve_spectral returns the Perron triple of -L: the survival decay rate
lambda0, the quasi-stationary law alpha (left eigenvector, sums to 1), the
right eigenfunction eta (alpha(eta) = 1) and the spectral gap gamma.
certify_ergodicity measures, on a time grid, the smallest constant C with

    || e^{lambda0 t} delta_x P_t - eta(x) alpha ||_psi1  <=  C psi1(x) e^{-gamma t}

and stores twice the measured maximum as the certified C (grid certification
cannot exclude slightly larger deviations between grid points; the factor-2
slack is recorded in the certificate).  semigroup() is the one place that
picks how e^{tL} is computed: from a reversible chain's symmetric eigenbasis,
or from scipy's expm, whose squarings set the rounding floor that
squarings() enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

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
        raise UnresolvedDecay(f"decay rate {lambda0} lies below the dense spectrum's "
                              f"resolution 1e-12 ||L|| = {1e-12 * scale:g}")
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


def weighted_norm(signed_measure, psi) -> float:
    """sum_x |m(x)| psi(x): the exact supremum of |m(f)| over |f| <= psi,
    attained at f = sign(m) * psi."""
    m = np.asarray(signed_measure, dtype=float)
    psi = np.asarray(psi, dtype=float)
    return float(np.abs(m) @ psi)


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


def default_time_grid(gamma: float, n_points: int = 12) -> np.ndarray:
    """{0} followed by a geometric sweep out to 6/gamma; more than
    MAX_GRID_POINTS points raise BudgetExceeded before the grid is built."""
    if n_points > MAX_GRID_POINTS:
        raise BudgetExceeded(f"{n_points} grid times exceed the ceiling of {MAX_GRID_POINTS}")
    return np.concatenate([[0.0], np.geomspace(0.1 / gamma, 6.0 / gamma, n_points)])


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


def semigroup(gen, t: float, lead=None) -> np.ndarray:
    """e^{tA} for (A, s) = gen.shifted, the generator of an absorbed chain
    or a Q-process shifted by its leading eigenvalue, so that the leading
    mode neither grows nor decays; given lead, the limit of that
    exponential, the deviation from it.

    A reversible gen's symmetric basis (w, U, h) gives (U / h) diag(e^{t(w -
    w_max)}) (U h)^T, and the deviation without its leading mode rather than
    by a subtraction, whose rounding e^{gamma t} would amplify.  Entry (x, y)
    carries eigh's rounding times h_y / h_x.  A deviation has that factor in
    its own scale; an exponential does not, so one whose n eps max h / min h
    exceeds ROUNDING_FLOOR comes, like every exponential of a gen that is not
    reversible, from scipy's expm, after squarings() has checked its
    rounding floor.  check_time comes first."""
    check_time(t)
    n, eps = gen.n, np.finfo(float).eps
    basis = gen.symmetric_basis
    if basis is not None:
        w, U, h = basis
        if lead is not None or n * eps * h.max() <= ROUNDING_FLOOR * h.min():
            weights = np.exp(t * (w - w[-1]))  # eigh sorts w ascending
            if lead is not None:
                weights[-1] = 0.0
            # modes below eps times the largest add less than the sum's rounding
            keep = weights >= eps * weights.max()
            V = U[:, keep] * np.sqrt(weights[keep])
            return (V / h[:, None]) @ (V * h[:, None]).T
    A, _ = gen.shifted
    squarings(t, np.abs(A).sum(axis=0).max(), n)
    E = expm(t * A)
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
    exceeds 1e-6 (about 22/gamma on a few states): through expm the ratio
    would measure rounding, not the deviation.  A reversible chain's basis
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
    # expm's ratio multiplies its rounding, about n eps, by e^{gamma t}
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
