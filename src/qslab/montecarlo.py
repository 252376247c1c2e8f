"""Exact event-driven simulation and empirical checks of the conditioned CLT.

Reproducibility contract: replica i of a run with master seed s draws from
the counter-based Philox4x64 stream keyed by (s, i) — draw 0 for the initial
state, draws 1 + 2j and 2 + 2j for the holding time and jump of step j.
Batch size and draw-window size never change the values a replica sees, so
sample lists are bit-identical; batches run in turn, in the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr

from .chain_model import AbsorbedChain
from .errors import BudgetExceeded, DegenerateVariance, ValidationError
from .qprocess import QProcessChain, h_transform
from .spectral import SpectralTriple, log_slope
from . import variance_clt

DEFAULT_BATCH = 4096
REJECTION_BUDGET = 1e9
_WINDOW_CAP = 512   # steps per draw window
_STEP_CEILING = 64  # times the Poisson step bound


def philox_stream(seed: int, replica: int) -> np.random.Generator:
    """The per-replica RNG stream; key = (master seed mod 2^64, replica index)."""
    key = np.array([int(seed) % 2 ** 64, int(replica)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
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


def _jump_tables(generator: np.ndarray, killing: Optional[np.ndarray]):
    # rows of cumulative jump probabilities; killing, when present, occupies
    # a final virtual column (target index n = cemetery)
    rates = -np.diag(generator).copy()
    off = generator.copy()
    np.fill_diagonal(off, 0.0)
    if killing is not None:
        off = np.hstack([off, killing[:, None]])
    probs = np.where(rates[:, None] > 0, off / np.where(rates > 0, rates, 1.0)[:, None], 0.0)
    cum = np.cumsum(probs, axis=1)
    # pin the cumulative row to exactly 1 from its last positive-probability
    # column on, so a uniform draw can never fall off the end by roundoff
    pos, ncol = probs > 0, probs.shape[1]
    last = np.where(pos.any(axis=1), ncol - 1 - np.argmax(pos[:, ::-1], axis=1), ncol)
    cum[np.arange(ncol) >= last[:, None]] = 1.0
    return rates, cum


def _simulate_one(generator, killing, initial, t_max, rng_stream) -> Trajectory:
    """The one-path reference simulator, which the batch kernel matches bit for
    bit; rng_stream is the (seed, replica) pair of its Philox stream."""
    gen = philox_stream(*rng_stream)
    rates, cumJ = _jump_tables(generator, killing)
    cum0, n = np.cumsum(np.asarray(initial, dtype=float)), generator.shape[0]
    state = min(int(np.searchsorted(cum0, gen.random(), side="right")), n - 1)
    t, times, states, absorption = 0.0, [], [state], np.inf
    while True:
        u_h, u_j = gen.random(), gen.random()
        rate = rates[state]
        if rate <= 0:
            break  # single absorbing-free state: sits forever
        t_next = t + (-np.log1p(-u_h) / rate)
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
    """One exact path of the killed chain from stream (seed, replica)."""
    return _simulate_one(chain.sub_generator, chain.killing, mu, t_max, rng_stream)


def simulate_qprocess(qproc: QProcessChain, initial, t_max: float, rng_stream) -> Trajectory:
    return _simulate_one(qproc.q_generator, None, initial, t_max, rng_stream)


# ---------------------------------------------------------------------------
# vectorized batch kernel (same draw discipline as _simulate_one)

def _draw_window(gen, replicas, offset, width):
    """Draws [offset, offset + width) of stream (seed, r), one row per r, with
    gen = philox_stream(seed, ·) serving the whole batch.

    Philox is counter-based: re-keyed to (seed, r) with block counter c and
    an empty 4-draw buffer, gen resumes that stream at draw 4c.  Rows start
    at c = offset // 4; the view skips the offset % 4 before."""
    bg, skip = gen.bit_generator, offset % 4
    key0 = int(bg.state["state"]["key"][0])  # the key word Philox makes of seed (mod 2^64)
    template = {"bit_generator": "Philox", "state": {"counter": (offset // 4, 0, 0, 0)},
                "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    U = np.empty((len(replicas), skip + width))
    for i, r in enumerate(replicas.tolist()):
        template["state"]["key"] = (key0, r)
        bg.state = template
        gen.random(out=U[i])
    return U[:, skip:]


class _Kernel:
    """Lock-step simulator of replica batches for one chain, initial law,
    observable and horizon.  Step j of every live replica reads draws 1 + 2j
    and 2 + 2j of its stream, from windows of `window` steps; replicas still
    running at a window's end draw their next window."""

    def __init__(self, generator, killing, initial, f, t_max):
        rates, cumJ = _jump_tables(generator, killing)
        self.n, ncol = cumJ.shape
        self.cum0 = np.cumsum(np.asarray(initial, dtype=float))
        self.f, self.t_max = np.asarray(f, dtype=float), float(t_max)
        zero = rates <= 0  # zero-rate states hold forever
        self.zero, self.neg_rates = (zero if zero.any() else None), -np.where(zero, 1.0, rates)
        # jump rows padded with +inf, and a guide table into them (see _next_states)
        self.width, self.K = ncol + 1, 1 << max(ncol - 1, 1).bit_length()
        self.cum = np.hstack([cumJ, np.full((self.n, 1), np.inf)]).ravel()
        grid = np.arange(self.K) / self.K
        self.guide = np.concatenate([np.searchsorted(row, grid) for row in cumJ])
        # a window covers the mean step count from the initial law plus two
        # Poisson sd, so few replicas need a second; steps are dominated by
        # Poisson(max rate * t), which the ceiling exceeds only on broken input
        lam = max(float(np.diff(self.cum0, prepend=0.0) @ rates) * self.t_max, 1.0)
        lam_max = max(float(rates.max()) * self.t_max, 1.0)
        if not lam_max <= REJECTION_BUDGET:
            raise BudgetExceeded(f"a replica's expected steps, max rate * t = {lam_max:.3g}, "
                                 f"exceed budget {REJECTION_BUDGET:.3g}")
        self.window = min(int(np.ceil(lam + 2.0 * np.sqrt(lam))), _WINDOW_CAP)
        self.max_steps = _STEP_CEILING * (lam_max + 16.0)

    def _next_states(self, st, u):
        """(u > cumJ[st]).sum(axis=1) via a guide table (Chen & Asau).  Rows
        of cumJ sum nonnegative terms and are pinned to 1 from their last
        positive term on, and u < 1: the columns with cumJ < u form a prefix,
        so the count is the first column with cumJ >= u.  K u is exact for K
        a power of two, and guide[st, floor(K u)] bounds it from below."""
        g = self.guide[st * self.K + (u * self.K).astype(np.intp)]
        base = st * self.width
        idx = np.flatnonzero(u > self.cum[base + g])
        while idx.size:
            g[idx] += 1
            idx = idx[u[idx] > self.cum[base[idx] + g[idx]]]
        return g

    def run(self, replicas, seed, count_jumps=None):
        B, n, t_max, gen = len(replicas), self.n, self.t_max, philox_stream(seed, 0)
        U = _draw_window(gen, replicas, 0, 1 + 2 * self.window)
        state = np.minimum(np.searchsorted(self.cum0, U[:, 0], side="right"), n - 1)
        S, absorbed = np.empty(B), np.zeros(B, dtype=bool)
        # live replicas, compacted: batch position, window row, state, clock, integral
        pos = row = np.arange(B)
        st, tc, acc, j, col = state.copy(), np.zeros(B), np.zeros(B), 0, 1
        while pos.size:
            if col == U.shape[1]:
                if j >= self.max_steps:
                    raise BudgetExceeded(f"a replica exceeded {self.max_steps:.0f} steps")
                U = _draw_window(gen, replicas[pos], 1 + 2 * j, 2 * self.window)
                row, col = np.arange(pos.size), 0
            # -log1p(-u)/rate bit for bit, as in _simulate_one
            hold = np.log1p(-U[row, col]) / self.neg_rates[st]
            if self.zero is not None:
                hold[self.zero[st]] = np.inf
            t_next = tc + hold
            acc += self.f[st] * (np.minimum(t_next, t_max) - tc)
            nxt = self._next_states(st, U[row, col + 1])
            jumping = t_next < t_max
            if count_jumps is not None:
                np.add.at(count_jumps, (st[jumping], nxt[jumping]), 1)
            live = jumping & (nxt < n)
            if not live.all():
                end = ~live
                S[pos[end]], state[pos[end]] = acc[end], st[end]
                absorbed[pos[end & jumping]] = True  # killed strictly before the horizon
                pos, row, acc = pos[live], row[live], acc[live]
                nxt, t_next = nxt[live], t_next[live]
            st, tc = nxt, t_next
            j, col = j + 1, col + 2
        return S, state, absorbed


def _batch_statistics(generator, killing, initial, f, t_max, n_replicas, seed,
                      batch=DEFAULT_BATCH, count_jumps=False):
    """(S_i, terminal state_i, absorbed_i) for replicas 0..n-1, plus optional
    pooled jump counts; identical output for any batch size."""
    kernel = _Kernel(generator, killing, initial, f, t_max)
    S = np.empty(n_replicas)
    term = np.empty(n_replicas, dtype=int)
    absorbed = np.empty(n_replicas, dtype=bool)
    counts = np.zeros((kernel.n, kernel.width), dtype=np.int64) if count_jumps else None
    for lo in range(0, n_replicas, batch):
        hi = min(lo + batch, n_replicas)
        S[lo:hi], term[lo:hi], absorbed[lo:hi] = kernel.run(np.arange(lo, hi), seed, counts)
    return S, term, absorbed, counts


# ---------------------------------------------------------------------------
# conditioned-CLT sampling

@dataclass(frozen=True)
class EmpiricalDistribution:
    samples: np.ndarray       # sorted values of sqrt(t) (S_t/t - beta(f))
    n_effective: int
    n_requested: int
    t: float
    method: str
    beta_f: float

    def __post_init__(self):
        self.samples.setflags(write=False)


def default_method(lambda0: float, t: float) -> str:
    """Rejection is exact but costs e^{lambda0 t} per kept path."""
    return "qprocess" if t > 3.0 / lambda0 else "rejection"


def conditional_clt_sample(chain: AbsorbedChain, triple: SpectralTriple, mu, f,
                           t: float, n_replicas: int, method: Optional[str] = None,
                           seed: int = 0, threads: int = 1,
                           batch: int = DEFAULT_BATCH) -> EmpiricalDistribution:
    """Sample the statistic sqrt(t)(S_t/t - beta(f)) under conditioning.

    'rejection' keeps absorbed-chain paths that survive past t (unbiased);
    'qprocess' simulates the surrogate conservative dynamics from the
    eta-reweighted initial law, whose law differs from exact conditioning by
    the coupling gap that qprocess.conditional_vs_q_gap bounds.  threads is
    accepted and ignored: batches run in the calling thread.
    """
    if not t > 0:
        raise ValidationError(f"time horizon t must be positive, got {t}")
    mu = np.asarray(mu, dtype=float)
    qproc = h_transform(chain, triple)
    obs = variance_clt.make_observable(qproc, f)
    method = default_method(triple.lambda0, t) if method is None else method
    if method not in ("rejection", "qprocess"):
        raise ValidationError(f"unknown conditioning method {method!r}")
    samples = np.zeros(n_replicas)  # a constant observable's statistic is exactly 0
    if not variance_clt.is_constant(obs.f_centered):
        mu_eta = float(mu @ triple.eta)
        if mu_eta <= 0:
            raise ValidationError("mu(eta) must be positive")
        if method == "rejection":
            log10_cost = np.log10(max(n_replicas, 1)) + triple.lambda0 * t / np.log(10.0)
            if log10_cost > np.log10(REJECTION_BUDGET):  # in logs: e^(lambda0 t) overflows
                raise BudgetExceeded(f"rejection cost n e^(lambda0 t) = 10^{log10_cost:.3g} "
                                     f"exceeds budget {REJECTION_BUDGET:.3g}")
            dynamics = (chain.sub_generator, chain.killing, mu)
        else:
            # the Q-process from the eta-reweighted law; no replica is absorbed
            dynamics = (qproc.q_generator, None, mu * triple.eta / mu_eta)
        S, _, absorbed, _ = _batch_statistics(*dynamics, obs.f_centered, t, n_replicas,
                                              seed, batch)
        samples = np.sort(np.sqrt(t) * S[~absorbed] / t)
    return EmpiricalDistribution(samples=samples, n_effective=len(samples),
                                 n_requested=n_replicas, t=float(t),
                                 method=method, beta_f=obs.beta_f)


def kolmogorov_distance(empirical: EmpiricalDistribution, sigma2: float) -> float:
    """Exact sup over the empirical CDF jumps of |F_n - Phi(./sigma)|.

    The Gaussian CDF comes from the complementary error function (rational
    minimax approximation under the hood; absolute error far below the 1e-7
    contract)."""
    if sigma2 <= 0:
        raise DegenerateVariance("kolmogorov_distance needs sigma^2 > 0")
    nn = len(empirical.samples)
    if nn == 0:
        raise ValidationError("empty sample")
    F = ndtr(empirical.samples / np.sqrt(sigma2))
    i = np.arange(nn)
    return float(max((F - i / nn).max(), ((i + 1) / nn - F).max()))


@dataclass(frozen=True)
class QuasiErgodicReport:
    rows: list            # (t, mc_value, mc_stderr, exact_value or nan)
    fitted_rate: float
    method: str


def quasi_ergodic_check(chain: AbsorbedChain, triple: SpectralTriple, mu, f,
                        t_grid, n_replicas: int, seed: int = 0,
                        method: Optional[str] = None) -> QuasiErgodicReport:
    """Monte Carlo conditional mean-square deviation of S_t/t from beta(f)
    on a time grid, with the exact moment-oracle value alongside when the
    centred f is not constant.  Each time must keep at least 2 replicas."""
    rows, used = [], None
    for t in np.asarray(t_grid, dtype=float):
        mth = method or default_method(triple.lambda0, t)
        used = mth if used in (None, mth) else "mixed"
        emp = conditional_clt_sample(chain, triple, mu, f, t, n_replicas, method=mth,
                                     seed=seed)
        dev2 = (emp.samples / np.sqrt(t)) ** 2
        if len(dev2) < 2:
            raise ValidationError(f"{len(dev2)} replicas kept at t={t}; a standard error needs 2")
        mc = float(dev2.mean())
        stderr = float(dev2.std(ddof=1) / np.sqrt(len(dev2)))
        exact = float("nan")
        f_centered = np.asarray(f, dtype=float) - emp.beta_f
        if not variance_clt.is_constant(f_centered):
            mv = variance_clt.exact_conditional_moments(chain, mu, f_centered, 2, t)
            exact = float(mv.conditional[2] / t ** 2)
        rows.append((float(t), mc, stderr, exact))
    rate = log_slope(np.log([r[0] for r in rows]), [r[1] for r in rows])
    return QuasiErgodicReport(rows=rows, fitted_rate=rate, method=used or "auto")


def jump_frequency_counts(chain: AbsorbedChain, mu, t_max: float, n_replicas: int,
                          seed: int = 0):
    """Pooled one-step transition counts (cemetery in the last column) for
    goodness-of-fit tests against the embedded jump probabilities."""
    _, _, _, counts = _batch_statistics(
        chain.sub_generator, chain.killing, mu, np.zeros(chain.n), t_max,
        n_replicas, seed, count_jumps=True)
    return counts[:, : chain.n + 1]
