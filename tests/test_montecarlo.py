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
    """A window read by re-keying one generator holds, in the column of each
    replica, the same slice of its stream, for offsets on and off the 4-draw
    block boundary and for replica sets that end in a ragged tile."""
    replicas = np.array([0, 1, 5, 2 ** 40 + 3])
    offsets = (0, 1, 2, 3, 4, 5, 7, 8, 4 * 37 + 1, 4 * 37 + 2, 4 * 37 + 3, 1001)
    for seed, offset in itertools.product((99, -1, 2 ** 63 + 5), offsets):
        for width in (1, 6, 33):
            U = montecarlo._draw_window(qslab.philox_stream(seed, 0), replicas, offset, width)
            assert U.shape == (width, len(replicas))
            for column, r in zip(U.T, replicas):
                ref = qslab.philox_stream(seed, r).random(offset + width)[offset:]
                np.testing.assert_array_equal(column, ref)
    tile = montecarlo._TILE
    for replicas, offset in itertools.product(
            (np.arange(tile + 1), 3 * np.arange(2 * tile + 2) + 2 ** 40), (0, 8, 4 * 37 + 3, 1001)):
        U = montecarlo._draw_window(qslab.philox_stream(7, 0), replicas, offset, 9)
        ref = [qslab.philox_stream(7, r).random(offset + 9)[offset:] for r in replicas]
        np.testing.assert_array_equal(U, np.array(ref).T)


def test_window_does_not_depend_on_tile_size(monkeypatch):
    """Tiles of 1 and of 3 replicas, ragged or not, fill the window that the
    default tile fills."""
    replicas = 3 * np.arange(10) + 2 ** 40
    for offset, width in ((0, 9), (4 * 37 + 3, 5)):
        want = montecarlo._draw_window(qslab.philox_stream(7, 0), replicas, offset, width)
        for tile in (1, 3):
            monkeypatch.setattr(montecarlo, "_TILE", tile)
            got = montecarlo._draw_window(qslab.philox_stream(7, 0), replicas, offset, width)
            monkeypatch.undo()
            np.testing.assert_array_equal(got, want)


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
     "c82c547b39667b397f2bda7c9cfe4299b7fbe5205f601d1dfe97f3ae0863905f"),
    ("m2sym", "qprocess", 200.0, 20000, 1, 20000,
     "44f174f437ed85bd16a0782fbcc05f3d28e865170ca96ee7b51ba27d0fc9dc14"),
    ("bd5", "rejection", 20.0, 20000, 1, 3538,
     "048728d6df6cd19ab4f0c503510d7047e95b6562d5765738279709519a5f1f77"),
], ids=["m2sym-qprocess-t50", "m2sym-qprocess-t200", "bd5-rejection-t20"])
def test_clt_samples_are_pinned(model, method, t, n, seed, kept, digest):
    """sha256 of the sorted sample bytes, recorded before the draw windows
    replaced one block per replica; they held when the windows turned
    step-major, filled by a transposed copy a tile of replicas at a time,
    and when the holding rows turned into log1p(-u) once per window.
    The digests depend on numpy's Philox stream and on numpy's own float64
    log1p, whose SIMD code numpy's build and the CPU's dispatch choose (it
    differs from math.log1p in about 7% of draws), so a new numpy or
    another CPU may legitimately move them; a kernel change must not.
    They also depend on beta(f), which centres f, so on the bits of the
    spectral triple: bd5's moved when its triple came off the symmetric
    eigenbasis instead of eig."""
    bundle = qslab.resolve_model(model)
    qp = qslab.h_transform(bundle.chain, qslab.solve_spectral(bundle.chain))
    emp = qslab.conditional_clt_sample(qp, bundle.mu, bundle.f, t, n, method=method, seed=seed)
    assert emp.n_effective == kept
    assert hashlib.sha256(emp.samples.tobytes()).hexdigest() == digest


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
