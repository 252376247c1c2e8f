import hashlib
import itertools

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import chi2, ks_2samp, kstest

import qslab
from qslab import montecarlo
from qslab.errors import NumericalError, ValidationError
from qslab.montecarlo import EmpiricalDistribution, _batch_statistics, default_method

import oracles


def test_philox_streams_are_prefix_stable_and_distinct():
    a = qslab.philox_stream(7, 3).random(5)
    b = qslab.philox_stream(7, 3).random(10)
    np.testing.assert_array_equal(a, b[:5])
    c = qslab.philox_stream(7, 4).random(5)
    d = qslab.philox_stream(8, 3).random(5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_philox_key_is_the_seed_as_a_u64():
    """Every seed in [0, 2^64) is its own key word, so seeds past 2^63 no
    longer share a stream; negative seeds wrap modulo 2^64."""
    for seed in (0, 5, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1):
        key = qslab.philox_stream(seed, 3).bit_generator.state["state"]["key"]
        assert [int(k) for k in key] == [seed, 3]
    a = qslab.philox_stream(2 ** 63, 0).random(4)
    assert not np.array_equal(a, qslab.philox_stream(2 ** 63 + 1, 0).random(4))
    np.testing.assert_array_equal(qslab.philox_stream(-1, 2).random(4),
                                  qslab.philox_stream(2 ** 64 - 1, 2).random(4))


def test_window_draws_are_stream_slices():
    """Row i of a window holds, in the column of replica r, draw offset + i
    of r, which is output r of stream (seed, offset + i); a holding row (odd
    draw index) holds numpy's log1p(-u) of it.  The replica sets start on
    and off the 4-output block boundary, leave holes in a span, split into
    spans more than a span gap apart (with a later span whose first outputs
    land on 0 to 3 columns of the span before it), and reach 2^40, where one
    span over every id would not fit in memory."""
    for seed, d in itertools.product((99, -1, 2 ** 63 + 5), (0, 1, 1001)):
        for r in range(10):
            assert oracles.draw(seed, r, d) == qslab.philox_stream(seed, d).random(r + 1)[r]
    gap = montecarlo._SPAN_GAP
    sets = [np.arange(lo, lo + 9) for lo in (0, 1, 2, 3, 5, 4 * 37 + 3)]
    sets += [np.r_[np.arange(k), np.arange(first, first + 7)]
             for k, first in itertools.product((1, 2, 3, 4), (gap + 8, gap + 9, gap + 11))]
    sets += [np.array([0, 1, 5, 2 ** 40 + 3]), 3 * np.arange(20) + 2 ** 40 + 1,
             np.r_[2, 7, 9, np.arange(1 + 2 ** 40, 6 + 2 ** 40), 2 ** 41 + 11]]
    for seed, offset, replicas in itertools.product((99, -1, 2 ** 63 + 5), (0, 1, 7, 1001), sets):
        for width in (1, 6):
            U = montecarlo._draw_window(qslab.philox_stream(seed, 0), replicas, offset, width)
            ref = np.array([[oracles.draw(seed, int(r), d) for r in replicas]
                            for d in range(offset, offset + width)])
            hold = ref[1 - offset % 2::2]
            hold[:] = np.log1p(-hold)
            np.testing.assert_array_equal(U, ref)


def test_trajectory_integral_by_hand():
    surv = oracles.Trajectory(
        jump_times=np.array([1.0, 2.5, 3.0]),
        visited_states=np.array([0, 1, 0, 1]),
        absorption_time=np.inf,
        t_max=4.0,
    )
    assert surv.survived
    # segments 1.0, 1.5, 0.5, 1.0 on states 0,1,0,1
    assert surv.additive_integral([2.0, -3.0]) == -4.5

    dead = oracles.Trajectory(
        jump_times=np.array([1.0]),
        visited_states=np.array([0, 1]),
        absorption_time=2.0,
        t_max=5.0,
    )
    assert not dead.survived
    assert dead.additive_integral([2.0, -3.0]) == -1.0


def test_single_state_absorption_is_unit_exponential():
    chain = qslab.validate_chain([[-1.0]])
    times = np.array([
        oracles.simulate_absorbed(chain, [1.0], 50.0, (11, i)).absorption_time
        for i in range(10000)
    ])
    assert np.all(np.isfinite(times))
    assert abs(times.mean() - 1.0) < 0.03
    assert kstest(times, "expon").pvalue > 1e-3


def test_batch_kernel_matches_single_paths_bitwise(bd5_bundle, bd5_qproc):
    """The vectorized kernel must reproduce the one-path simulator exactly,
    replica by replica, for both dynamics."""
    chain = bd5_bundle.chain
    mu = bd5_bundle.mu
    f = np.linspace(-1.0, 1.0, 5)
    t_max, seed, n = 6.0, 42, 64

    S, term, absorbed, _ = _batch_statistics(
        chain.sub_generator, chain.killing, mu, f, t_max, n, seed, batch=13
    )
    for i in range(n):
        tr = oracles.simulate_absorbed(chain, mu, t_max, (seed, i))
        assert S[i] == tr.additive_integral(f)
        assert absorbed[i] == (not tr.survived)
        if tr.survived:
            assert term[i] == tr.visited_states[-1]

    Sq, termq, deadq, _ = _batch_statistics(
        bd5_qproc.q_generator, None, bd5_qproc.beta, f, t_max, n, seed, batch=17
    )
    assert not deadq.any()
    for i in range(n):
        tr = oracles.simulate_qprocess(bd5_qproc, bd5_qproc.beta, t_max, (seed, i))
        assert Sq[i] == tr.additive_integral(f)
        assert termq[i] == tr.visited_states[-1]
        assert np.all(np.diff(np.concatenate([[0.0], tr.jump_times])) > 0)


@pytest.fixture(scope="module")
def stiff_chain():
    """Slow states 1-2 (killed at 1), fast pair 3-4: total rates 1 to 100."""
    return qslab.validate_chain([
        [-1.0, 0.9, 0.0, 0.0],
        [0.2, -1.0, 0.8, 0.0],
        [0.0, 1.0, -50.0, 49.0],
        [0.0, 0.0, 100.0, -100.0],
    ])


def _count_windows(monkeypatch):
    """Record the replicas handed to each window after the first."""
    later = []
    draw = montecarlo._draw_window

    def spy(gen, replicas, offset, width):
        if offset:
            later.append(replicas.copy())
        return draw(gen, replicas, offset, width)

    monkeypatch.setattr(montecarlo, "_draw_window", spy)
    return later


def test_multi_window_replicas_match_single_paths(stiff_chain, monkeypatch):
    """Rates spanning 100x: the window planned from the initial law's mean
    rate is far too short for replicas that reach the fast pair, so they
    draw window after window; every sample still equals the one-path
    simulator's bit for bit."""
    chain = stiff_chain
    mu = np.array([1.0, 0.0, 0.0, 0.0])
    f = np.array([1.0, -0.5, 0.25, -1.0])
    t_max, seed, n = 10.0, 3, 96
    qproc = qslab.h_transform(chain, qslab.solve_spectral(chain))
    for gen_matrix, killing, simulate, model in (
            (chain.sub_generator, chain.killing, oracles.simulate_absorbed, chain),
            (qproc.q_generator, None, oracles.simulate_qprocess, qproc)):
        later = _count_windows(monkeypatch)
        S, term, absorbed, _ = _batch_statistics(
            gen_matrix, killing, mu, f, t_max, n, seed, batch=40)
        monkeypatch.undo()
        windows = np.bincount(np.concatenate(later), minlength=n) + 1
        assert (windows > 1).sum() >= n // 2
        assert windows.max() >= 4
        for i in range(n):
            tr = simulate(model, mu, t_max, (seed, i))
            assert S[i] == tr.additive_integral(f)
            assert absorbed[i] == (not tr.survived)
            if tr.survived:
                assert term[i] == tr.visited_states[-1]
        if killing is not None:
            assert 0 < absorbed.sum() < n


def test_jump_counts_do_not_depend_on_batch_size(stiff_chain):
    """Pooled counts from batches of 13 and of 4096 equal the transitions of
    the one-path simulator, cemetery jumps included."""
    chain = stiff_chain
    mu = np.full(4, 0.25)
    t_max, seed, n = 3.0, 17, 300
    want = np.zeros((4, 6), dtype=np.int64)
    for i in range(n):
        tr = oracles.simulate_absorbed(chain, mu, t_max, (seed, i))
        np.add.at(want, (tr.visited_states[:-1], tr.visited_states[1:]), 1)
        if not tr.survived:
            want[tr.visited_states[-1], 4] += 1
    counts = oracles.jump_frequency_counts(chain, mu, t_max, n, seed=seed)
    np.testing.assert_array_equal(counts, want[:, :5])
    _, _, _, small = _batch_statistics(chain.sub_generator, chain.killing, mu,
                                       np.zeros(4), t_max, n, seed, batch=13,
                                       count_jumps=True)
    np.testing.assert_array_equal(small, want)


@pytest.mark.parametrize("model, method, t, n, seed, kept, digest", [
    ("m2sym", "qprocess", 50.0, 5000, 123, 5000,
     "693b7d699f0cf0f499603f6ed8ff487faebedfaf747a19098f5c4cb48f8b01eb"),
    ("m2sym", "qprocess", 200.0, 20000, 1, 20000,
     "b9d9889fa4325c6a551e02b7a88c43c43740114a25f0b87759bafda95eb4ed5f"),
    ("bd5", "rejection", 20.0, 20000, 1, 3483,
     "d264526c628deed2e32a4b96dfb85aa2984d901ddfc03284bc2164ba485db16a"),
], ids=["m2sym-qprocess-t50", "m2sym-qprocess-t200", "bd5-rejection-t20"])
def test_clt_samples_are_pinned(model, method, t, n, seed, kept, digest):
    """sha256 of the sorted sample bytes, recorded when draw d of replica r
    became output r of the stream keyed (seed, d), so that a window row is
    one fill over the batch; the stream keyed (seed, r) per replica, which
    they replace, gave other digests.  The digests depend on numpy's Philox
    stream and on numpy's own float64 log1p, whose SIMD code numpy's build
    and the CPU's dispatch choose (it differs from math.log1p in about 7%
    of draws), so a new numpy or another CPU may legitimately move them; a
    kernel change that keeps the contract must not.  They also depend on
    beta(f), which centres f, so on the bits of the spectral triple."""
    bundle = qslab.resolve_model(model)
    qp = qslab.h_transform(bundle.chain, qslab.solve_spectral(bundle.chain))
    emp = qslab.conditional_clt_sample(qp, bundle.mu, bundle.f, t, n, method=method, seed=seed)
    assert emp.n_effective == kept
    assert hashlib.sha256(emp.samples.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("model, method, t, seed, n, deepest", [
    ("m2sym", "qprocess", 200.0, 3, 2800, 3),  # replica 2792 draws a third window
    ("bd5", "rejection", 20.0, 1, 3000, 2),
], ids=["m2sym-qprocess-t200", "bd5-rejection-t20"])
def test_batch_size_does_not_change_samples(monkeypatch, model, method, t, seed, n, deepest):
    """Batches of 4096 and 13 give the same samples.  Batches of 1 and 3 give
    each replica the same S, absorbed flag and terminal state, checked on
    the first batches and on each batch holding a replica that drew a
    later window: the kernel reruns those batches alone, as
    _batch_statistics would."""
    bundle = qslab.resolve_model(model)
    qp = qslab.h_transform(bundle.chain, qslab.solve_spectral(bundle.chain))
    mu, f = bundle.mu, bundle.f
    base = qslab.conditional_clt_sample(qp, mu, f, t, n, method=method, seed=seed)
    small = qslab.conditional_clt_sample(qp, mu, f, t, n, method=method, seed=seed, batch=13)
    np.testing.assert_array_equal(small.samples, base.samples)
    if method == "qprocess":
        dynamics = (qp.q_generator, None, mu * qp.triple.eta / (mu @ qp.triple.eta))
    else:
        dynamics = (bundle.chain.sub_generator, bundle.chain.killing, mu)
    later = _count_windows(monkeypatch)
    S, term, absorbed, _ = _batch_statistics(*dynamics, f, t, n, seed)
    monkeypatch.undo()
    windows = np.bincount(np.concatenate(later), minlength=n) + 1
    assert windows.max() >= deepest
    kernel = montecarlo._Kernel(*dynamics, f, np.array([t]))
    for batch in (1, 3):
        for r in np.unique(np.r_[:4, np.flatnonzero(windows > 1)[:6], np.argmax(windows)]):
            lo = r - r % batch
            ids = np.arange(lo, min(lo + batch, n))
            got = kernel.run(ids, seed)
            np.testing.assert_array_equal(got[0][0], S[ids])
            np.testing.assert_array_equal(got[1], term[ids])
            np.testing.assert_array_equal(got[2][0], absorbed[ids])


def test_batch_and_thread_count_do_not_change_results(m2sym_bundle):
    chain = m2sym_bundle.chain
    args = (chain.sub_generator, chain.killing, m2sym_bundle.mu,
            np.array([1.0, -1.0]), 3.0, 1000, 5)
    base = _batch_statistics(*args, batch=1000)
    for batch in (64, 37, 256, 200):
        S, term, absorbed, _ = _batch_statistics(*args, batch=batch)
        np.testing.assert_array_equal(S, base[0])
        np.testing.assert_array_equal(term, base[1])
        np.testing.assert_array_equal(absorbed, base[2])


def test_horizon_grid_does_not_depend_on_batch_size(stiff_chain):
    """One pass over a grid of horizons with kills between them gives, row
    by row, the arrays of a pass to each horizon alone, for any batch size;
    a replica killed at tau is absorbed at every horizon past tau."""
    mu = np.full(4, 0.25)
    f = np.array([1.0, -0.5, 0.25, -1.0])
    grid, n, seed = np.array([0.5, 2.0, 3.0, 5.0]), 400, 6
    args = (stiff_chain.sub_generator, stiff_chain.killing, mu, f)
    base = _batch_statistics(*args, grid, n, seed, batch=n)
    assert base[0].shape == base[2].shape == (len(grid), n)
    assert 0 < base[2][0].sum() < base[2][-1].sum() < n
    assert np.all(base[2][:-1] <= base[2][1:])  # absorbed stays absorbed
    for batch in (64, 37):
        got = _batch_statistics(*args, grid, n, seed, batch=batch)
        for a, b in zip(got[:3], base[:3]):
            np.testing.assert_array_equal(a, b)
    for k, h in enumerate(grid):
        S, _, absorbed, _ = _batch_statistics(*args, h, n, seed, batch=97)
        np.testing.assert_array_equal(S, base[0][k])
        np.testing.assert_array_equal(absorbed, base[2][k])
    np.testing.assert_array_equal(_batch_statistics(*args, 5.0, n, seed)[1], base[1])


def test_horizon_grid_matches_single_paths_bitwise():
    """One pass over a grid of horizons equals, replica by replica and at
    every horizon, the one-path simulator run to that horizon: S, the
    absorbed flag and the terminal state, for a killed chain (kills land
    between every two horizons) and for its Q-process (no path can end
    early).  The slow states 1-2 (killed at 1, rate 2.1) and the fast pair
    3-4 mix steps where some path reaches the horizon or is killed with
    steps where none does."""
    chain = qslab.validate_chain([
        [-3.0, 0.9, 0.0, 0.0],
        [0.6, -1.0, 0.4, 0.0],
        [0.0, 1.0, -50.0, 49.0],
        [0.0, 0.0, 100.0, -100.0],
    ])
    mu = np.full(4, 0.25)
    f = np.array([1.0, -0.5, 0.25, -1.0])
    grid, n, seed = np.array([0.5, 2.0, 3.0, 5.0]), 48, 11
    qproc = qslab.h_transform(chain, qslab.solve_spectral(chain))
    for gen_matrix, killing, simulate, model in (
            (chain.sub_generator, chain.killing, oracles.simulate_absorbed, chain),
            (qproc.q_generator, None, oracles.simulate_qprocess, qproc)):
        S, term, absorbed, _ = _batch_statistics(gen_matrix, killing, mu, f, grid, n, seed,
                                                 batch=20)
        for i in range(n):
            for k, h in enumerate(grid):
                tr = simulate(model, mu, h, (seed, i))
                assert S[k, i] == tr.additive_integral(f)
                assert absorbed[k, i] == (not tr.survived)
            assert term[i] == tr.visited_states[-1]
        if killing is None:
            assert not absorbed.any()
        else:
            assert 0 < absorbed[0].sum() < absorbed[1].sum() < absorbed[-1].sum() < n


def _count_passes(monkeypatch):
    passes = []
    run = montecarlo._batch_statistics

    def spy(*args, **kwargs):
        passes.append(args[4])
        return run(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_batch_statistics", spy)
    return passes


@pytest.mark.parametrize("model, grid, method", [
    ("bd5", (20.0, 5.0, 10.0, 10.0), "rejection"),
    ("m2asym", (0.5, 2.0, 1.0), "rejection"),
    ("bd5", (3.0, 30.0), "qprocess"),
    ("bd5", (60.0, 20.0, 30.0), None),  # 3/lambda0 = 37: two methods
], ids=["bd5-rejection", "m2asym-rejection", "bd5-qprocess", "bd5-default"])
def test_grid_samples_equal_per_time_samples(monkeypatch, model, grid, method):
    """A grid call gives each time the bits of its own call, repeated and
    unsorted times included, from one kernel pass per method."""
    bundle = qslab.resolve_model(model)
    qp = qslab.h_transform(bundle.chain, qslab.solve_spectral(bundle.chain))
    mu, f, n = bundle.mu, bundle.f, 1500
    passes = _count_passes(monkeypatch)
    emps = qslab.conditional_clt_sample(qp, mu, f, list(grid), n, method=method, seed=4,
                                        batch=333)
    monkeypatch.undo()
    methods = {e.method for e in emps}
    assert len(passes) == len(methods) == (1 if method else 2)
    assert sorted(np.concatenate(passes).tolist()) == sorted(set(grid))
    for t, emp in zip(grid, emps):
        alone = qslab.conditional_clt_sample(qp, mu, f, t, n, method=method, seed=4)
        assert (emp.t, emp.method, emp.n_effective) == (alone.t, alone.method, alone.n_effective)
        np.testing.assert_array_equal(emp.samples, alone.samples)
    rep = qslab.quasi_ergodic_check(qp, mu, f, emps)
    assert rep.method == (methods.pop() if len(methods) == 1 else "mixed")
    assert [row[0] for row in rep.rows] == list(grid)


def test_survival_fraction_matches_semigroup(m2sym_bundle):
    chain = m2sym_bundle.chain
    n = 20000
    _, _, absorbed, _ = _batch_statistics(
        chain.sub_generator, chain.killing, m2sym_bundle.mu,
        np.zeros(2), 1.0, n, seed=3
    )
    p = float((m2sym_bundle.mu @ expm(chain.sub_generator)).sum())
    phat = 1.0 - absorbed.mean()
    assert abs(phat - p) < 3.0 * np.sqrt(p * (1 - p) / n)


def test_qprocess_marginal_chi_square(bd5_qproc):
    """Terminal states of the surrogate dynamics against the exact marginal."""
    n = 20000
    t = 3.0
    init = np.eye(5)[0]
    _, term, _, _ = _batch_statistics(
        bd5_qproc.q_generator, None, init, np.zeros(5), t, n, seed=9
    )
    expect = qslab.q_marginal(bd5_qproc, init, t) * n
    obs = np.bincount(term, minlength=5).astype(float)
    stat = float(((obs - expect) ** 2 / expect).sum())
    assert chi2.sf(stat, df=4) > 1e-3


def test_beta_is_empirically_invariant(bd5_qproc):
    n = 20000
    _, term, _, _ = _batch_statistics(
        bd5_qproc.q_generator, None, bd5_qproc.beta, np.zeros(5), 5.0, n, seed=31
    )
    expect = bd5_qproc.beta * n
    obs = np.bincount(term, minlength=5).astype(float)
    stat = float(((obs - expect) ** 2 / expect).sum())
    assert chi2.sf(stat, df=4) > 1e-3


def test_jump_counts_match_embedded_probabilities(bd5_bundle):
    """Pooled transition counts vs the embedded jump matrix (chi-square,
    cemetery column included)."""
    chain = bd5_bundle.chain
    counts = oracles.jump_frequency_counts(chain, bd5_bundle.mu, 40.0, 4000, seed=17)
    rates = -np.diag(chain.sub_generator)
    off = chain.sub_generator.copy()
    np.fill_diagonal(off, 0.0)
    jump = np.hstack([off, chain.killing[:, None]]) / rates[:, None]
    stat, cells = 0.0, 0
    for x in range(5):
        row_total = counts[x].sum()
        expect = row_total * jump[x]
        for y in range(6):
            if expect[y] >= 5.0:
                stat += (counts[x, y] - expect[y]) ** 2 / expect[y]
                cells += 1
    df = cells - 5  # one totals constraint per row
    assert chi2.sf(stat, df) > 1e-3


def test_default_method_switch():
    assert default_method(1.0, 2.0) == "rejection"
    assert default_method(1.0, 4.0) == "qprocess"


def test_clt_sample_reproducible_across_schedules(m2sym_bundle, m2sym_qproc):
    qp, mu, f = m2sym_qproc, m2sym_bundle.mu, m2sym_bundle.f
    a = qslab.conditional_clt_sample(qp, mu, f, 25.0, 3000, method="qprocess", seed=12)
    b = qslab.conditional_clt_sample(qp, mu, f, 25.0, 3000,
                                     method="qprocess", seed=12, batch=111)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = qslab.conditional_clt_sample(qp, mu, f, 25.0, 3000, method="qprocess", seed=13)
    assert not np.array_equal(a.samples, c.samples)
    assert a.n_effective == a.n_requested == 3000


def test_clt_sample_rejection_keeps_survivors_only(m2sym_bundle, m2sym_qproc):
    chain, mu, f = m2sym_bundle.chain, m2sym_bundle.mu, m2sym_bundle.f
    t, n = 2.0, 20000
    emp = qslab.conditional_clt_sample(m2sym_qproc, mu, f, t, n, method="rejection", seed=8)
    p = float((mu @ expm(t * chain.sub_generator)).sum())
    assert emp.method == "rejection"
    assert abs(emp.n_effective / n - p) < 3.0 * np.sqrt(p * (1 - p) / n)
    assert np.all(np.diff(emp.samples) >= 0)


def test_clt_sample_two_methods_agree_in_law(m2sym_bundle, m2sym_qproc):
    qp, mu, f = m2sym_qproc, m2sym_bundle.mu, m2sym_bundle.f
    rej = qslab.conditional_clt_sample(qp, mu, f, 5.0, 40000, method="rejection", seed=21)
    qpr = qslab.conditional_clt_sample(qp, mu, f, 5.0, 2000, method="qprocess", seed=22)
    assert rej.n_effective > 150
    assert ks_2samp(rej.samples, qpr.samples).pvalue > 1e-3


def test_clt_sample_constant_observable_collapses(m2sym_bundle, m2sym_qproc):
    emp = qslab.conditional_clt_sample(
        m2sym_qproc, m2sym_bundle.mu, np.ones(2), 10.0, 500, method="qprocess", seed=1)
    assert emp.n_effective == 500
    assert np.all(emp.samples == 0.0)


def test_constant_observable_keeps_the_survivors_of_any_observable(m2sym_bundle, m2sym_qproc):
    """A constant f has the statistic 0 on every path, but rejection still
    conditions on survival: on one seed it keeps the replicas that a
    nonconstant f keeps, at a scalar t and on a grid."""
    qp, mu, n = m2sym_qproc, m2sym_bundle.mu, 3000
    pairs = []
    for t in (5.0, [2.0, 5.0, 1.0]):
        const, other = (qslab.conditional_clt_sample(qp, mu, f, t, n, method="rejection", seed=6)
                        for f in (np.full(2, 0.5), m2sym_bundle.f))
        pairs += zip(const, other) if isinstance(t, list) else [(const, other)]
    assert len(pairs) == 4
    for const, other in pairs:
        assert (const.t, const.method) == (other.t, other.method)
        assert 0 < const.n_effective == other.n_effective < n
        assert not const.samples.any() and not np.signbit(const.samples).any()


def test_clt_sample_guardrails(m2sym_bundle, m2sym_qproc):
    qp, mu, f = m2sym_qproc, m2sym_bundle.mu, m2sym_bundle.f
    with pytest.raises(ValidationError):
        qslab.conditional_clt_sample(qp, mu, f, 5.0, 100, method="importance", seed=0)
    for t in (50.0, 701.0):  # e^{701} n overflows: the cost is compared in logs
        with pytest.raises(NumericalError) as exc:
            qslab.conditional_clt_sample(qp, mu, f, t, 100000, method="rejection", seed=0)
        assert exc.value.code == "budget-exceeded"


def test_batch_must_be_a_positive_integer(monkeypatch, m2sym_bundle, m2sym_qproc):
    """A batch of -1 once returned n_effective = 2 of 10 Q-process replicas,
    read from memory no batch had written; 0 and 2.5 ended in bare
    ValueError and TypeError.  Each is refused before any kernel pass."""
    qp, mu, f = m2sym_qproc, m2sym_bundle.mu, m2sym_bundle.f
    passes = _count_passes(monkeypatch)
    for batch in (-1, 0, 2.5, np.float64(3.0), "4", None):
        with pytest.raises(ValidationError, match="batch"):
            qslab.conditional_clt_sample(qp, mu, f, 5.0, 10, method="qprocess", seed=1,
                                         batch=batch)
    assert passes == []
    monkeypatch.undo()
    emp = qslab.conditional_clt_sample(qp, mu, f, 5.0, 10, seed=1, batch=np.int64(3))
    assert emp.n_effective == 10
    np.testing.assert_array_equal(emp.samples,
                                  qslab.conditional_clt_sample(qp, mu, f, 5.0, 10, seed=1).samples)


def test_kolmogorov_distance_hand_values():
    def emp(samples):
        return EmpiricalDistribution(
            samples=np.sort(np.asarray(samples, dtype=float)),
            n_effective=len(samples), n_requested=len(samples),
            t=1.0, method="direct")

    assert abs(qslab.kolmogorov_distance(emp([0.0, 0.0]), 1.0) - 0.5) < 1e-15
    # two points at +-1: distance is Phi(1) - 1/2
    got = qslab.kolmogorov_distance(emp([-1.0, 1.0]), 1.0)
    assert abs(got - 0.3413447460685429) < 1e-12
    with pytest.raises(NumericalError):
        qslab.kolmogorov_distance(emp([0.0]), 0.0)
    with pytest.raises(ValidationError):
        qslab.kolmogorov_distance(emp([]), 1.0)


def test_kolmogorov_distance_on_true_gaussian_draw():
    rng = np.random.default_rng(99)
    z = rng.standard_normal(100000)
    emp = EmpiricalDistribution(
        samples=np.sort(2.0 * z), n_effective=len(z), n_requested=len(z),
        t=1.0, method="direct")
    d = qslab.kolmogorov_distance(emp, 4.0)
    assert d < 1.63 / np.sqrt(len(z))  # 1% critical value


def test_quasi_ergodic_check_matches_exact_oracle(m2sym_bundle, m2sym_qproc):
    qp, mu, f = m2sym_qproc, m2sym_bundle.mu, m2sym_bundle.f
    rep = qslab.quasi_ergodic_check(
        qp, mu, f, qslab.conditional_clt_sample(qp, mu, f, [10.0, 20.0], 4000, seed=5))
    assert rep.method == "qprocess"
    for t, mc, stderr, exact in rep.rows:
        # exact second conditional moment: (t - (1-e^{-2t})/2) / t^2
        closed = (t - (1.0 - np.exp(-2.0 * t)) / 2.0) / t ** 2
        assert abs(exact - closed) < 1e-10
        assert abs(mc - exact) < 4.0 * stderr
    assert -1.4 < rep.fitted_rate < -0.6


def test_quasi_ergodic_check_has_an_exact_column_at_any_size():
    """A 60-state ladder gets the exact column too, the conditional second
    moment of the centred observable over t^2 (no state-count cut-off)."""
    n = 60
    chain = qslab.build_birth_death(n, [1.0] * (n - 1) + [0.0], [1.0] * n)
    qp = qslab.h_transform(chain, qslab.solve_spectral(chain))
    mu, f = np.full(n, 1.0 / n), np.linspace(-1.0, 1.0, n)
    rep = qslab.quasi_ergodic_check(
        qp, mu, f, qslab.conditional_clt_sample(qp, mu, f, [4.0, 8.0], 50, method="qprocess",
                                                seed=3))
    beta_f = float(qp.beta @ f)
    for t, _, _, exact in rep.rows:
        mv = qslab.exact_conditional_moments(chain, mu, f - beta_f, 2, t)
        assert np.isfinite(exact)
        assert exact == float(mv.conditional[2] / t ** 2)
