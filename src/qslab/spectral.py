"""Quasi-stationary eigen-objects and the exponential-ergodicity certificate.

solve_spectral returns the Perron triple of -L: the survival decay rate
lambda0, the quasi-stationary law alpha (left eigenvector, sums to 1), the
right eigenfunction eta (alpha(eta) = 1) and the spectral gap gamma.
certify_ergodicity measures, on a time grid, the smallest constant C with

    || e^{lambda0 t} delta_x P_t - eta(x) alpha ||_psi1  <=  C psi1(x) e^{-gamma t}

and stores twice the measured maximum as the certified C (grid certification
cannot exclude slightly larger deviations between grid points; the factor-2
slack is recorded in the certificate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .chain_model import AbsorbedChain
from .errors import DegenerateGap, NoKilling, OverflowGuard, ValidationError

_SLACK_FACTOR = 2.0
ROUNDING_FLOOR = 1e-6  # largest rounding floor of an oracle's result that a run accepts


@dataclass(frozen=True)
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
        raise NoKilling(f"leading eigenvalue {-lambda0} is not strictly negative")
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
    nan when fewer than two such points.  Pass log x for a power-law rate."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pos = y > 0
    if pos.sum() >= 2:
        return float(np.polyfit(x[pos], np.log(y[pos]), 1)[0])
    return float("nan")


def default_time_grid(gamma: float, n_points: int = 12) -> np.ndarray:
    """{0} followed by a geometric sweep out to 6/gamma."""
    return np.concatenate([[0.0], np.geomspace(0.1 / gamma, 6.0 / gamma, n_points)])


def shifted_generator(chain: AbsorbedChain):
    """(L - s I, s) for a chain's sub-generator L and s = -lambda0 (bit for bit
    as solve_spectral): conditioned ratios do not see the shift, and
    e^{t(L - s I)} stays of order one where e^{tL} underflows."""
    s = float(chain.eigen[0].real.max())
    return chain.sub_generator - s * np.eye(chain.n), s


def certification_profile(chain: AbsorbedChain, triple: SpectralTriple, psi1,
                          t_grid):
    """Per-time worst deviation ratios e^{gamma t} max_x ||...||_psi1/psi1(x)."""
    psi1 = np.asarray(psi1, dtype=float)
    G = chain.sub_generator + triple.lambda0 * np.eye(chain.n)
    target = np.outer(triple.eta, triple.alpha)
    out = []
    for t in np.asarray(t_grid, dtype=float):
        dev = expm(t * G) - target
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
    exceeds 1e-6 (about 22/gamma on a few states): the ratio would measure
    expm's rounding, not the deviation.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    gamma = triple.gamma
    if t_grid.size == 0 or np.any(np.diff(t_grid) <= 0):
        raise ValidationError("certification grid must be nonempty and increasing")
    if t_grid[-1] < 0.95 * 5.0 / gamma:
        raise ValidationError(
            f"certification grid must reach 5/gamma = {5.0 / gamma:.3g}, got {t_grid[-1]:.3g}")
    # the ratio multiplies expm's rounding, about n eps, by e^{gamma t}
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
