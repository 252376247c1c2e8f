"""Independent references that only the tests call: one draw of the
reproducibility contract, the one-path simulator the batch kernel must
match bit for bit through it, pooled jump counts of the kernel,
and two characteristic-function oracles, the one-omega charfun and the
Taylor moments recovered from it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import factorial

import numpy as np

from qslab.chain_model import AbsorbedChain
from qslab.errors import ValidationError
from qslab.montecarlo import _batch_statistics, _jump_tables, philox_stream
from qslab.qprocess import QProcessChain
from qslab.variance_clt import _conditional_charfuns, _tilted_law


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A path observed on [0, end] with end = min(absorption, t_max).

    jump_times are the state-change instants; visited_states is one longer.
    absorption_time is +inf when the path survives the horizon.
    """

    jump_times: np.ndarray
    visited_states: np.ndarray
    absorption_time: float
    t_max: float

    @property
    def survived(self) -> bool:
        return not np.isfinite(self.absorption_time)

    def additive_integral(self, f) -> float:
        """Exact piecewise-constant integral of f along the path.

        Accumulated segment by segment in path order — the same floating-point
        sequence as the batch kernel, so the two agree bit for bit."""
        f = np.asarray(f, dtype=float)
        edges = np.concatenate([[0.0], self.jump_times, [min(self.absorption_time, self.t_max)]])
        total = np.float64(0.0)
        for state, seg in zip(self.visited_states, np.diff(edges)):
            total += f[state] * seg
        return float(total)


@lru_cache(maxsize=1 << 18)  # tests replay a path at several horizons and dynamics
def draw(seed: int, replica: int, d: int) -> float:
    """Draw d of a replica under the contract of qslab.montecarlo: output
    `replica` of the stream philox_stream(seed, d), reached by advancing its
    block counter past the replica // 4 blocks of 4 outputs before it."""
    gen = philox_stream(seed, d)
    gen.bit_generator.advance(replica // 4)
    return float(gen.random(replica % 4 + 1)[-1])


def _simulate_one(generator, killing, initial, t_max, rng_stream) -> Trajectory:
    """The one-path reference simulator, which the batch kernel matches bit for
    bit; rng_stream is the (seed, replica) pair whose draws 0, 1, 2, ... it
    reads through draw."""
    draws = (draw(*rng_stream, d) for d in count())
    rates, cumJ = _jump_tables(generator, killing)
    cum0, n = np.cumsum(np.asarray(initial, dtype=float)), generator.shape[0]
    state = min(int(np.searchsorted(cum0, next(draws), side="right")), n - 1)
    t, times, states, absorption = 0.0, [], [state], np.inf
    while True:
        u_h, u_j = next(draws), next(draws)
        t_next = t + (-np.log1p(-u_h) / rates[state])
        if t_next >= t_max:
            break
        nxt = int((u_j > cumJ[state]).sum())
        if nxt >= n:
            absorption = t_next
            break
        t, state = t_next, nxt
        times.append(t)
        states.append(state)
    return Trajectory(jump_times=np.array(times), visited_states=np.array(states, dtype=int),
                      absorption_time=absorption, t_max=float(t_max))


def simulate_absorbed(chain: AbsorbedChain, mu, t_max: float, rng_stream) -> Trajectory:
    """One exact path of the killed chain from the draws of (seed, replica)."""
    return _simulate_one(chain.sub_generator, chain.killing, mu, t_max, rng_stream)


def simulate_qprocess(qproc: QProcessChain, initial, t_max: float, rng_stream) -> Trajectory:
    return _simulate_one(qproc.q_generator, None, initial, t_max, rng_stream)


def jump_frequency_counts(chain: AbsorbedChain, mu, t_max: float, n_replicas: int,
                          seed: int = 0):
    """Pooled one-step transition counts (cemetery in the last column) for
    goodness-of-fit tests against the embedded jump probabilities."""
    _, _, _, counts = _batch_statistics(
        chain.sub_generator, chain.killing, mu, np.zeros(chain.n), t_max,
        n_replicas, seed, count_jumps=True)
    return counts[:, : chain.n + 1]


def exact_conditional_charfun(gen, mu, f, omega_over_sqrt_t: float, t: float) -> complex:
    """E_mu[e^{i w' int_0^t f(X_s) ds} | survival] with w' = omega/sqrt(t)
    held fixed, via one complex matrix exponential of the shifted generator.
    For a conservative generator the conditioning divisor is 1."""
    if t <= 0:
        raise ValidationError("charfun needs t > 0")
    return _conditional_charfuns(gen, mu, f, [omega_over_sqrt_t], t)[0]


def charfun_taylor_moments(gen, mu, f, t: float, k_max: int = 4) -> np.ndarray:
    """Moments m_k recovered by numerically differentiating the raw
    characteristic function in w' at 0 (trapezoidal rule on a complex
    circle of radius 0.4 with 32 points; exact for entire functions up to
    roundoff).  Cross-check for exact_conditional_moments."""
    L, s = gen.shifted
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
