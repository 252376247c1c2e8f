"""Doob h-transform: the chain conditioned to survive forever.

The transformed generator L_Q(x, y) = eta(y) L(x, y) / eta(x) (off-diagonal)
is conservative, has invariant law beta = eta * alpha, and satisfies the
semigroup intertwining

    exp(t L_Q) = e^{lambda0 t} diag(eta)^{-1} exp(t L) diag(eta).

conditional_marginal computes the law of X_t given survival up to a later
horizon T, and conditional_vs_q_gap measures how fast it approaches the
Q-process marginal as T - t grows (exponentially, at rate gamma).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain_model import AbsorbedChain
from .errors import OverflowGuard, ValidationError, ZeroEta
from .spectral import (
    ErgodicityCertificate,
    SpectralTriple,
    certify_ergodicity,
    default_time_grid,
    log_slope,
    semigroup,
)


@dataclass(frozen=True)
class QProcessChain:
    """Conservative transformed chain on the support of eta.

    psi = psi1 / eta is the natural weight for Q-side ergodicity bounds and
    c = min psi its positive lower bound.  chain is the absorbed chain it
    conditions, whose eigen-decompositions also diagonalise L_Q.
    """

    q_generator: np.ndarray
    beta: np.ndarray
    eta: np.ndarray
    psi: np.ndarray
    c: float
    lambda0: float
    gamma: float
    chain: AbsorbedChain

    @property
    def n(self) -> int:
        return len(self.beta)

    @property
    def generator(self) -> np.ndarray:
        return self.q_generator

    @property
    def leading_eigenvalue(self) -> float:
        return 0.0  # conservative

    @property
    def symmetric_basis(self):
        """The chain's (w, U, h) for L_Q = diag(eta)^{-1} (L + lambda0)
        diag(eta): (w - max w, U, h eta), whose leading eigenvalue is 0
        exactly and h eta is proportional to sqrt(beta), the measure L_Q is
        reversible for.  None when L is not reversible."""
        basis = self.chain.symmetric_basis
        if basis is None:
            return None
        w, U, h = basis
        return w - w[-1], U, h * self.eta

    @property
    def eigen(self):
        """(w, vl, vr) of L_Q from the chain's eigen: eigenvalues w + lambda0,
        right vectors vr / eta and left vectors eta vl."""
        w, vl, vr = self.chain.eigen
        return w + self.lambda0, vl * self.eta[:, None], vr / self.eta[:, None]

    def __post_init__(self):
        for arr in (self.q_generator, self.beta, self.eta, self.psi):
            arr.setflags(write=False)


def h_transform(chain: AbsorbedChain, triple: SpectralTriple,
                psi1: Optional[np.ndarray] = None) -> QProcessChain:
    """Build the Q-process generator; rows are forced to sum to zero exactly."""
    eta = triple.eta
    if np.min(eta) <= 1e-12 * np.max(eta):
        raise ZeroEta("eta vanishes somewhere: h-transform undefined on full E")
    L = chain.sub_generator
    n = chain.n
    LQ = (L + triple.lambda0 * np.eye(n)) * np.outer(1.0 / eta, eta)
    np.fill_diagonal(LQ, 0.0)
    np.fill_diagonal(LQ, -LQ.sum(axis=1))
    beta = eta * triple.alpha
    if psi1 is None:
        psi1 = np.ones(n)
    psi = np.asarray(psi1, dtype=float) / eta
    return QProcessChain(
        q_generator=LQ,
        beta=beta,
        eta=eta.copy(),
        psi=psi,
        c=float(psi.min()),
        lambda0=triple.lambda0,
        gamma=triple.gamma,
        chain=chain,
    )


def q_marginal(qproc: QProcessChain, initial, t: float) -> np.ndarray:
    """initial e^{t L_Q}; through expm a t past the rounding floor of its
    squarings raises OverflowGuard (see spectral.semigroup)."""
    if t < 0:
        raise ValidationError("time must be nonnegative")
    initial = np.asarray(initial, dtype=float)
    return initial @ semigroup(qproc, t)


@dataclass(frozen=True)
class QErgodicityReport:
    rows: list  # (t, worst weighted deviation ratio, implied C)
    tv_rows: list  # same with the plain sum-of-abs (TV) deviation over psi(x)
    fitted_rate: float


def check_q_ergodicity(qproc: QProcessChain, t_grid) -> QErgodicityReport:
    """Worst-case weighted deviation of delta_x exp(t L_Q) from beta.

    For each grid time: max_x ||delta_x exp(t L_Q) - beta||_psi / psi(x),
    together with the total-variation variant (sum |.| convention) over the
    same eta-weighted prefactor, and a fitted exponential decay rate.
    """
    rows, tv_rows = [], []
    for t in np.asarray(t_grid, dtype=float):
        D = np.abs(semigroup(qproc, t, lead=qproc.beta))
        devs = D @ qproc.psi / qproc.psi
        tvs = D.sum(axis=1) / qproc.psi
        rows.append((float(t), float(devs.max()), float(devs.max() * np.exp(qproc.gamma * t))))
        tv_rows.append((float(t), float(tvs.max()), float(tvs.max() * np.exp(qproc.gamma * t))))
    rate = log_slope([r[0] for r in rows], [r[1] for r in rows])
    return QErgodicityReport(rows=rows, tv_rows=tv_rows, fitted_rate=rate)


def conditional_marginal(chain: AbsorbedChain, mu, t: float, T: float) -> np.ndarray:
    """Law of X_t given survival past T >= t, by two shifted exponentials;
    a law that is not finite raises, and so does, through expm, a time past
    the rounding floor of its squarings (see spectral.semigroup)."""
    if not 0 <= t <= T:
        raise ValidationError("need 0 <= t <= T")
    mu = np.asarray(mu, dtype=float)
    at_t = mu @ semigroup(chain, t)
    surv = semigroup(chain, T - t) @ np.ones(chain.n)
    num = at_t * surv
    if not np.all(np.isfinite(num)):
        raise OverflowGuard(f"conditional marginal is not finite at t={t}, T={T}")
    total = num.sum()
    if total <= 0:
        raise ValidationError("survival probability vanished; conditioning undefined")
    return num / total


@dataclass(frozen=True)
class ConditionalGapReport:
    t: float
    T: float
    tv_gap: float          # (1/2) sum |.|
    tv_gap_sum: float      # sum |.| convention (trivially <= 2)
    bound: float           # C' (mu(psi1)/mu(eta)) e^{-gamma (T-t)}
    threshold_T: float     # validity horizon (1/gamma) log(2 C mu(psi1)/mu(eta))
    threshold_ok: bool


def conditional_vs_q_gap(chain: AbsorbedChain, triple: SpectralTriple, mu,
                         t: float, T: float,
                         psi1: Optional[np.ndarray] = None,
                         cert: Optional[ErgodicityCertificate] = None) -> ConditionalGapReport:
    """Gap between the T-conditioned marginal at t and the Q-process marginal
    started from the eta-reweighted initial law mu*eta/mu(eta).

    When no certificate is supplied one is computed on the default grid; its
    C feeds both the displayed bound prefactor and the validity threshold.
    """
    mu = np.asarray(mu, dtype=float)
    if psi1 is None:
        psi1 = np.ones(chain.n)
    if cert is None:
        cert = certify_ergodicity(chain, triple, psi1, default_time_grid(triple.gamma))
    qproc = h_transform(chain, triple, psi1)
    mu_eta = mu @ triple.eta
    if mu_eta <= 0:
        raise ValidationError("mu(eta) must be positive")
    h_mu = mu * triple.eta / mu_eta
    cond = conditional_marginal(chain, mu, t, T)
    qm = q_marginal(qproc, h_mu, t)
    gap_sum = float(np.abs(cond - qm).sum())
    mu_psi1 = float(mu @ psi1)
    ratio = mu_psi1 / mu_eta
    bound = cert.C * ratio * np.exp(-triple.gamma * (T - t))
    threshold = np.log(max(2.0 * cert.C * ratio, 1.0 + 1e-300)) / triple.gamma
    return ConditionalGapReport(
        t=float(t), T=float(T),
        tv_gap=0.5 * gap_sum,
        tv_gap_sum=gap_sum,
        bound=float(bound),
        threshold_T=float(threshold),
        threshold_ok=bool(T >= threshold),
    )


def fit_gap_rate(chain: AbsorbedChain, triple: SpectralTriple, mu, t: float, dT_list):
    """Sweep T - t with psi1 = 1, certified once on the default grid, and
    regress log gap; returns (slope, reports)."""
    cert = certify_ergodicity(chain, triple, np.ones(chain.n), default_time_grid(triple.gamma))
    reports = [conditional_vs_q_gap(chain, triple, mu, t, t + dT, cert=cert) for dT in dT_list]
    return log_slope(dT_list, [r.tv_gap for r in reports]), reports
