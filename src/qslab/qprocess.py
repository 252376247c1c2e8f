"""Doob h-transform: the chain conditioned to survive forever.

The transformed generator L_Q(x, y) = eta(y) L(x, y) / eta(x) (off-diagonal)
is conservative, has invariant law beta = eta * alpha, and satisfies the
semigroup intertwining

    exp(t L_Q) = e^{lambda0 t} diag(eta)^{-1} exp(t L) diag(eta).

QProcessChain.start(mu) is the one owner of its start law mu eta / mu(eta)
and of the coupling ratio mu(psi1)/mu(eta) that the coupling gap's bound scales.
conditional_marginal computes the law of X_t given survival up to a later
horizon T, and conditional_vs_q_gap measures how fast it approaches the
Q-process marginal as T - t grows (exponentially, at rate gamma).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain_model import AbsorbedChain
from .errors import DegenerateGap, OverflowGuard, ValidationError, ZeroEta
from .spectral import ErgodicityCertificate, SpectralTriple, semigroup


@dataclass(frozen=True, eq=False)
class QProcessChain:
    """Conservative transformed chain on the support of eta.

    chain is the absorbed chain it conditions, whose eigen-decompositions
    also diagonalise L_Q, and triple the chain's spectral triple it was
    built from.
    """

    q_generator: np.ndarray
    beta: np.ndarray
    psi1: np.ndarray
    triple: SpectralTriple
    chain: AbsorbedChain

    @property
    def n(self) -> int:
        return len(self.beta)

    @property
    def shifted(self):
        """(L_Q, 0): conservative, so its leading eigenvalue is 0."""
        return self.q_generator, 0.0

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
        return w - w[-1], U, h * self.triple.eta

    def start(self, mu):
        """(mu eta / mu(eta), mu(psi1) / mu(eta)): the start law for the chain's
        initial law mu, and the coupling ratio; mu(eta) <= 0 raises ValidationError."""
        mu = np.asarray(mu, dtype=float)
        mu_eta = float(mu @ self.triple.eta)
        if mu_eta <= 0:
            raise ValidationError("mu(eta) must be positive")
        return mu * self.triple.eta / mu_eta, float(mu @ self.psi1) / mu_eta

    def __post_init__(self):
        for arr in (self.q_generator, self.beta, self.psi1):
            arr.setflags(write=False)


def h_transform(chain: AbsorbedChain, triple: SpectralTriple,
                psi1: Optional[np.ndarray] = None) -> QProcessChain:
    """Build the Q-process generator; rows are forced to sum to zero exactly.
    A one-state chain has no spectral gap (see solve_spectral), so no
    Q-process: every state of one has a positive total rate.  psi1
    (default 1) is kept as a read-only copy."""
    if chain.n < 2:
        raise DegenerateGap("a one-state chain has no spectral gap")
    eta = triple.eta
    if np.min(eta) <= 1e-12 * np.max(eta):
        raise ZeroEta("eta vanishes somewhere: h-transform undefined on full E")
    L = chain.sub_generator
    n = chain.n
    LQ = (L + triple.lambda0 * np.eye(n)) * np.outer(1.0 / eta, eta)
    np.fill_diagonal(LQ, 0.0)
    np.fill_diagonal(LQ, -LQ.sum(axis=1))
    psi1 = np.ones(n) if psi1 is None else np.array(psi1, dtype=float)
    return QProcessChain(q_generator=LQ, beta=eta * triple.alpha, psi1=psi1, triple=triple,
                         chain=chain)


def q_marginal(qproc: QProcessChain, initial, t: float) -> np.ndarray:
    """initial e^{t L_Q}; spectral.semigroup refuses a t that is negative
    or not finite, and, off the symmetric basis, one past the rounding
    floor of its squarings."""
    return np.asarray(initial, dtype=float) @ semigroup(qproc, t)


def conditional_marginal(chain: AbsorbedChain, mu, t: float, T: float) -> np.ndarray:
    """Law of X_t given survival past T >= t, by two shifted exponentials;
    a law that is not finite raises, and so does, off the symmetric basis,
    a time past the rounding floor of its squarings (see spectral.semigroup)."""
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


def conditional_vs_q_gap(qproc: QProcessChain, mu, t: float, T: float,
                         cert: ErgodicityCertificate) -> ConditionalGapReport:
    """Gap between the T-conditioned marginal at t and the Q-process marginal
    started from the law mu*eta/mu(eta), with the ratio mu(psi1)/mu(eta),
    both from QProcessChain.start(mu).  The run's certificate for psi1
    gives the C of both the displayed bound prefactor and the validity
    threshold.
    """
    triple = qproc.triple
    h_mu, ratio = qproc.start(mu)
    cond = conditional_marginal(qproc.chain, mu, t, T)
    qm = q_marginal(qproc, h_mu, t)
    gap_sum = float(np.abs(cond - qm).sum())
    bound = cert.C * ratio * np.exp(-triple.gamma * (T - t))
    threshold = np.log(max(2.0 * cert.C * ratio, 1.0)) / triple.gamma
    return ConditionalGapReport(
        t=float(t), T=float(T),
        tv_gap=0.5 * gap_sum,
        tv_gap_sum=gap_sum,
        bound=float(bound),
        threshold_T=float(threshold),
        threshold_ok=bool(T >= threshold),
    )

