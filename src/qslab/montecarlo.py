"""Exact event-driven simulation and empirical checks of the conditioned CLT.

Reproducibility contract: with master seed s, draw d of replica r is output r
of the counter-based Philox4x64 stream keyed by (s mod 2^64, d): draw 0 for
the initial state, draws 1 + 2j and 2 + 2j for the holding time and jump of
step j.  Sample lists are therefore bit-identical for any batch size and
stable in the replica count; batches run in turn, in the calling thread.
Step j draws its rows over the replicas still live, and each row is one
re-key and one fill over the span of their ids (_draw_row).  When every jump
of the chain has one target, draw 2 + 2j is not generated: the jump is that
target whatever the uniform, and the contract of every drawn value holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr

from .errors import BudgetExceeded, DegenerateVariance, ValidationError
from .qprocess import QProcessChain
from .spectral import log_slope
from . import variance_clt

DEFAULT_BATCH = 4096
REJECTION_BUDGET = 1e9
MAX_REPLICAS = 10 ** 7  # per sample: qed on m2sym took 31 s and 645 MB at 10^7 (README)
MIN_QED_TIME = 2.0 ** -511  # the smallest t whose t^2 is a normal double (so sqrt(t) t is one)
_STEP_CEILING = 64  # times the Poisson step bound


def philox_stream(seed: int, draw: int) -> np.random.Generator:
    """The RNG stream of one draw index; key = (master seed mod 2^64, draw
    index), and its output r is that draw of replica r."""
    key = np.array([int(seed) % 2 ** 64, int(draw)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _jump_tables(generator: np.ndarray, killing: Optional[np.ndarray]):
    """(rates, rows of cumulative jump probabilities); killing, when present,
    occupies a final virtual column (target index n = cemetery).  Every
    rate is positive: a chain of two or more states is strongly connected
    (validate_chain), a one-state chain's rate is its killing rate, and L_Q,
    defined for two states or more, has L's off-diagonal support."""
    rates = -np.diag(generator).copy()
    off = generator.copy()
    np.fill_diagonal(off, 0.0)
    if killing is not None:
        off = np.hstack([off, killing[:, None]])
    probs = off / rates[:, None]
    cum = np.cumsum(probs, axis=1)
    # pin the cumulative row to exactly 1 from its last positive-probability
    # column on, so a uniform draw can never fall off the end by roundoff
    ncol = probs.shape[1]
    last = ncol - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)
    cum[np.arange(ncol) >= last[:, None]] = 1.0
    return rates, cum


# ---------------------------------------------------------------------------
# vectorized batch kernel (the draw discipline of the module docstring)

def _draw_row(gen, key, ids, d):
    """Draw d of the sorted replica ids, which lie within one batch: output r
    of stream (seed, d) for id r, a holding row (odd d) as log1p(-u), numpy's
    log1p of the same doubles.  gen = philox_stream(seed, ·) and key its key
    word, seed mod 2^64; re-keyed to (seed, d) with block counter c, gen
    resumes stream d at output 4c, so one re-key and one fill from the first
    id's block cover the span of the ids: used as it is when they have no
    holes, else gathered.  The log1p runs on a 1-D contiguous array (numpy
    2.4.6 wrote garbage for an in-place np.negative on a strided (n, 1)
    view)."""
    first, last = int(ids[0]), int(ids[-1])
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"key": (key, d), "counter": (first // 4, 0, 0, 0)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    u = gen.random(first % 4 + last - first + 1)[first % 4:]
    if len(u) > len(ids):
        u = u[ids - first]
    if d % 2:
        np.negative(u, out=u)
        np.log1p(u, out=u)
    return u


class _Kernel:
    """Lock-step simulator of replica batches for one chain, initial law,
    observable and sorted horizons.  Step j draws rows 1 + 2j and 2 + 2j
    for the replicas still live when it is taken; a holding row already
    holds log1p(-u), so a holding time is one division.  When every row of
    the jump table has one positive-probability column (the cemetery
    counts), fixed holds it per state and row 2 + 2j is not drawn: the
    inversion of any u in [0, 1) returns that column.  A replica runs to
    the largest horizon and records S_h as it crosses each earlier h."""

    def __init__(self, generator, killing, initial, f, horizons):
        rates, cumJ = _jump_tables(generator, killing)
        self.n, ncol = cumJ.shape
        self.ncol = ncol
        self.cum0 = np.cumsum(np.asarray(initial, dtype=float))
        self.f, self.horizons, self.t_max = np.asarray(f, dtype=float), horizons, horizons[-1]
        self.neg_rates = -rates
        # jump rows padded with +inf, and a guide table into them (see
        # _next_states), both with one row stride
        self.K = 1 << max(ncol - 1, 1).bit_length()
        self.stride = max(ncol + 1, self.K)
        self.cum = np.pad(cumJ, ((0, 0), (0, self.stride - ncol)), constant_values=np.inf).ravel()
        grid = np.arange(self.K) / self.K
        guide = np.array([np.searchsorted(row, grid, side="right") for row in cumJ])
        self.guide = np.pad(guide, ((0, 0), (0, self.stride - self.K))).ravel()
        targets = np.diff(cumJ, axis=1, prepend=0.0) > 0
        self.fixed = targets.argmax(axis=1) if (targets.sum(axis=1) == 1).all() else None
        # steps are dominated by Poisson(max rate * t), which the ceiling
        # exceeds only on broken input
        lam_max = max(float(rates.max()) * self.t_max, 1.0)
        if not lam_max <= REJECTION_BUDGET:
            raise BudgetExceeded(f"a replica's expected steps, max rate * t = {lam_max:.3g}, "
                                 f"exceed budget {REJECTION_BUDGET:.3g}")
        self.max_steps = _STEP_CEILING * (lam_max + 16.0)

    def _next_states(self, st, u):
        """(u >= cumJ[st]).sum(axis=1) via a guide table (Chen & Asau).  Rows
        of cumJ sum nonnegative terms and are pinned to 1 from their last
        positive term on, and u < 1: the columns with cumJ <= u form a
        prefix, so the count is the first column with cumJ > u, which has
        positive probability even when u is a breakpoint.  K u is exact for
        K a power of two, and guide[st, floor(K u)] bounds it from below."""
        base = st * self.stride
        g = self.guide[base + (u * self.K).astype(np.intp)]
        idx = (u >= self.cum[base + g]).nonzero()[0]
        while idx.size:
            g[idx] += 1
            idx = idx[u[idx] >= self.cum[base[idx] + g[idx]]]
        return g

    def run(self, replicas, seed, count_jumps=None):
        B, n, t_max, gen = len(replicas), self.n, self.t_max, philox_stream(seed, 0)
        key = int(gen.bit_generator.state["state"]["key"][0])  # seed mod 2^64, as Philox keeps it
        # k_lo: the first earlier horizon that some replica has yet to reach
        hz, last, k_lo = self.horizons, len(self.horizons) - 1, 0
        state = np.minimum(np.searchsorted(self.cum0, _draw_row(gen, key, replicas, 0),
                                           side="right"), n - 1)
        S, absorbed = np.empty((last + 1, B)), np.zeros((last + 1, B), dtype=bool)
        # live replicas, compacted: id, batch position, state, clock, integral
        ids, pos, st, tc, acc = replicas, np.arange(B), state.copy(), np.zeros(B), np.zeros(B)
        j = 0
        while pos.size:
            if j >= self.max_steps:
                raise BudgetExceeded(f"a replica exceeded {self.max_steps:.0f} steps")
            hold = _draw_row(gen, key, ids, 1 + 2 * j)
            # -log1p(-u)/rate bit for bit, as the one-path reference in tests/oracles.py
            t_next = tc + hold / self.neg_rates[st]
            if k_lo < last and t_next.max() >= hz[k_lo]:  # S_h, as a run to t_max = h ends
                for k in range(k_lo, np.searchsorted(hz[:last], t_next.max(), side="right")):
                    x = ((tc < hz[k]) & (hz[k] <= t_next)).nonzero()[0]
                    S[k, pos[x]] = acc[x] + self.f[st[x]] * (np.minimum(t_next[x], hz[k]) - tc[x])
                k_lo = np.searchsorted(hz[:last], t_next.min(), side="right")
            acc += self.f[st] * (np.minimum(t_next, t_max) - tc)
            if self.fixed is None:
                nxt = self._next_states(st, _draw_row(gen, key, ids, 2 + 2 * j))
            else:
                nxt = self.fixed[st]
            jumping = t_next < t_max
            if count_jumps is not None:
                np.add.at(count_jumps, (st[jumping], nxt[jumping]), 1)
            live = jumping & (nxt < n)
            if not live.all():
                end = ~live
                S[last, pos[end]], state[pos[end]] = acc[end], st[end]
                killed = end & jumping  # strictly before t_max
                absorbed[last, pos[killed]] = True
                if last:  # and at each earlier horizon past the kill, where S stops too
                    late = hz[:last, None] > t_next[killed]
                    absorbed[:last, pos[killed]] = late
                    S[:last, pos[killed]] = np.where(late, acc[killed], S[:last, pos[killed]])
                ids, pos, acc = ids[live], pos[live], acc[live]
                nxt, t_next = nxt[live], t_next[live]
            st, tc = nxt, t_next
            j += 1
        return S, state, absorbed


def _batch_statistics(generator, killing, initial, f, t_max, n_replicas, seed,
                      batch=DEFAULT_BATCH, count_jumps=False):
    """(S_i, terminal state_i, absorbed_i) for replicas 0..n-1, plus optional
    pooled jump counts; identical output for any batch size.  A sorted grid
    of distinct horizons t_max gives S and absorbed one row per horizon."""
    kernel = _Kernel(generator, killing, initial, f, np.atleast_1d(np.asarray(t_max, float)))
    S, term = np.empty((len(kernel.horizons), n_replicas)), np.empty(n_replicas, dtype=int)
    absorbed = np.empty(S.shape, dtype=bool)
    counts = np.zeros((kernel.n, kernel.ncol + 1), dtype=np.int64) if count_jumps else None
    for lo in range(0, n_replicas, batch):
        hi = min(lo + batch, n_replicas)
        S[:, lo:hi], term[lo:hi], absorbed[:, lo:hi] = kernel.run(np.arange(lo, hi), seed, counts)
    return (S, term, absorbed, counts) if np.ndim(t_max) else (S[0], term, absorbed[0], counts)


# ---------------------------------------------------------------------------
# conditioned-CLT sampling

@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    samples: np.ndarray       # sorted values of sqrt(t) (S_t/t - beta(f))
    n_effective: int
    n_requested: int
    t: float
    method: str

    def __post_init__(self):
        self.samples.setflags(write=False)


def default_method(lambda0: float, t: float) -> str:
    """Rejection is exact but costs e^{lambda0 t} per kept path."""
    return "qprocess" if t > 3.0 / lambda0 else "rejection"


def conditional_clt_sample(qproc: QProcessChain, mu, f, t, n_replicas: int,
                           method: Optional[str] = None, seed: int = 0):
    """Sample the statistic sqrt(t)(S_t/t - beta(f)) under conditioning.

    'rejection' keeps paths of the absorbed chain qproc.chain that survive
    past t (unbiased); 'qprocess' simulates the surrogate conservative
    dynamics L_Q from the eta-reweighted initial law, whose law differs
    from exact conditioning by the coupling gap that
    qprocess.conditional_vs_q_gap bounds.

    A scalar t gives its EmpiricalDistribution, a grid (repeated, unsorted
    times allowed) a list in its order.  Times that share a method take one
    kernel pass, to their largest; the rejection budget is checked first.
    Replicas run in batches of DEFAULT_BATCH, which no sample depends on.
    More than MAX_REPLICAS replicas raise BudgetExceeded, a replica count
    that is not a positive integer ValidationError, before any allocation;
    a time that check_qed_times refuses raises before any draw.
    """
    if not isinstance(n_replicas, (int, np.integer)) or n_replicas < 1:
        raise ValidationError(f"n_replicas must be a positive integer, not {n_replicas!r}")
    times = np.atleast_1d(np.asarray(t, dtype=float))
    check_qed_times(times)
    mu = np.asarray(mu, dtype=float)
    chain, triple = qproc.chain, qproc.triple
    obs = variance_clt.make_observable(qproc, f)
    methods = [default_method(triple.lambda0, ti) if method is None else method for ti in times]
    if not set(methods) <= {"rejection", "qprocess"}:
        raise ValidationError(f"unknown conditioning method {method!r}")
    if n_replicas > MAX_REPLICAS:
        raise BudgetExceeded(f"{n_replicas} replicas exceed the ceiling of {MAX_REPLICAS}")
    q_start, _ = qproc.start(mu)
    drawn = {}  # (method, t) -> sorted statistic
    for m in sorted(set(methods), reverse=True):  # rejection's budget before any pass
        hz = np.unique(times[np.array(methods) == m])
        if m == "rejection":
            log10_cost = np.log10(n_replicas) + triple.lambda0 * hz[-1] / np.log(10.0)
            if log10_cost > np.log10(REJECTION_BUDGET):  # in logs: e^(lambda0 t) overflows
                raise BudgetExceeded(f"rejection cost n e^(lambda0 t) = 10^{log10_cost:.3g} "
                                     f"exceeds budget {REJECTION_BUDGET:.3g}")
            dynamics = (chain.sub_generator, chain.killing, mu)
        else:
            # the Q-process from the eta-reweighted law; no replica is absorbed
            dynamics = (qproc.q_generator, None, q_start)
        S, _, absorbed, _ = _batch_statistics(*dynamics, obs.f_centered, hz, n_replicas,
                                              seed, DEFAULT_BATCH)
        for h, s_h, dead in zip(hz, S, absorbed):
            drawn[m, h] = np.sort(np.sqrt(h) * s_h[~dead] / h)
    out = [EmpiricalDistribution(samples=(kept := drawn[m, ti]), n_effective=len(kept),
                                 n_requested=n_replicas, t=float(ti), method=m)
           for m, ti in zip(methods, times)]
    return out if np.ndim(t) else out[0]


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
    rows: list            # (t, mc_value, mc_stderr, exact_value)
    fitted_rate: float
    method: str


def check_qed_times(times):
    """Refuse a time below MIN_QED_TIME, nan and t <= 0 included: there the
    statistic sqrt(t) S_t / t, t^2 and the exact column's divisor underflow.
    conditional_clt_sample runs this before any draw."""
    times = np.asarray(times, dtype=float)
    tiny = times[~(times >= MIN_QED_TIME)]
    if tiny.size:
        raise ValidationError(f"time t={float(tiny[0])!r} is below 2^-511 = {MIN_QED_TIME!r}, "
                              "the least time whose t^2 is a normal double")


def quasi_ergodic_check(qproc: QProcessChain, mu, f, samples) -> QuasiErgodicReport:
    """Monte Carlo conditional mean-square deviation of S_t/t from beta(f)
    on the samples of a conditional_clt_sample grid, with the exact value
    from one moment-oracle call over the grid.  Each time must keep at
    least 2 replicas, and pass check_qed_times."""
    t_grid = np.array([emp.t for emp in samples])
    check_qed_times(t_grid)
    obs = variance_clt.make_observable(qproc, f)
    stats, used = [], None
    for emp, t in zip(samples, t_grid):
        used = emp.method if used in (None, emp.method) else "mixed"
        dev2 = (emp.samples / np.sqrt(t)) ** 2
        if len(dev2) < 2:
            raise ValidationError(f"{len(dev2)} replicas kept at t={t}; a standard error needs 2")
        stats.append((float(dev2.mean()), float(dev2.std(ddof=1) / np.sqrt(len(dev2)))))
    mvs = variance_clt.exact_conditional_moments(qproc.chain, mu, obs.f_centered, 2, t_grid)
    rows = [(float(t), mc, stderr, float(mv.conditional[2] / t ** 2))
            for t, (mc, stderr), mv in zip(t_grid, stats, mvs)]
    rate = log_slope(np.log([r[0] for r in rows]), [r[1] for r in rows])
    return QuasiErgodicReport(rows=rows, fitted_rate=rate, method=used or "auto")

