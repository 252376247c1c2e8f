import numpy as np
import pytest
from scipy.linalg import expm

import qslab
from qslab.errors import NumericalError, ValidationError
from qslab.spectral import certification_profile

import oracles
import paper_checks


def test_m2sym_transform_is_exact(m2sym_qproc):
    # eta = 1, lambda0 = 1: the transform only removes the killing
    np.testing.assert_allclose(
        m2sym_qproc.q_generator, [[-1.0, 1.0], [1.0, -1.0]], rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(m2sym_qproc.beta, [0.5, 0.5], rtol=0, atol=1e-14)
    weights = paper_checks.q_weights(m2sym_qproc)
    np.testing.assert_allclose(weights.psi, [1.0, 1.0], rtol=0, atol=0)
    assert weights.c == 1.0


def test_uniform_killing_shifts_diagonal_only():
    chain = qslab.validate_chain([[-3.0, 2.0], [2.0, -3.0]])
    tr = qslab.solve_spectral(chain)
    qp = qslab.h_transform(chain, tr)
    np.testing.assert_allclose(
        qp.q_generator, [[-2.0, 2.0], [2.0, -2.0]], rtol=0, atol=1e-12
    )


def test_transform_matches_entrywise_formula(m2asym_bundle, m2asym_triple, m2asym_qproc):
    L = m2asym_bundle.chain.sub_generator
    tr = m2asym_triple
    LQ = m2asym_qproc.q_generator
    for x in range(2):
        for y in range(2):
            if x != y:
                expect = tr.eta[y] * L[x, y] / tr.eta[x]
                assert abs(LQ[x, y] - expect) < 1e-13
    # rows vanish exactly by construction
    np.testing.assert_array_equal(LQ.sum(axis=1), [0.0, 0.0])
    # and the diagonal therefore equals L_xx + lambda0 up to roundoff
    for x in range(2):
        assert abs(LQ[x, x] - (L[x, x] + tr.lambda0)) < 1e-12


def test_beta_is_invariant_law(m2asym_qproc, bd5_qproc):
    for qp in (m2asym_qproc, bd5_qproc):
        assert abs(qp.beta.sum() - 1.0) < 1e-12
        assert np.abs(qp.beta @ qp.q_generator).max() < 1e-12
        for t in (1.0, 10.0):
            np.testing.assert_allclose(
                qp.beta @ expm(t * qp.q_generator), qp.beta, rtol=0, atol=1e-12
            )


def test_spectrum_shifts_by_lambda0(m2asym_bundle, m2asym_triple, m2asym_qproc):
    wL = np.sort(np.linalg.eigvals(m2asym_bundle.chain.sub_generator).real)
    wQ = np.sort(np.linalg.eigvals(m2asym_qproc.q_generator).real)
    np.testing.assert_allclose(wQ, wL + m2asym_triple.lambda0, rtol=0, atol=1e-10)
    # slowest nonzero mode of L_Q sits exactly at -gamma
    assert abs(wQ[-1]) < 1e-12
    assert abs(wQ[-2] + m2asym_triple.gamma) < 1e-10


def test_intertwining_on_random_chains(random_chain_set):
    """exp(t L_Q) = e^{lambda0 t} diag(eta)^{-1} exp(t L) diag(eta)."""
    for chain in random_chain_set[:5]:
        tr = qslab.solve_spectral(chain)
        qp = qslab.h_transform(chain, tr)
        L = chain.sub_generator
        for t in (0.3, 1.7):
            lhs = expm(t * qp.q_generator)
            rhs = np.exp(tr.lambda0 * t) * (
                expm(t * L) * tr.eta[None, :] / tr.eta[:, None]
            )
            assert np.abs(lhs - rhs).max() < 1e-9


def test_zero_eta_guard(m2sym_bundle):
    from qslab.spectral import SpectralTriple

    bad = SpectralTriple(
        lambda0=1.0,
        alpha=np.array([0.5, 0.5]),
        eta=np.array([1.0, 1e-14]),
        gamma=2.0,
        residuals=(np.zeros(2), np.zeros(2)),
    )
    with pytest.raises(NumericalError) as exc:
        qslab.h_transform(m2sym_bundle.chain, bad)
    assert exc.value.code == "zero-eta"


def test_one_state_chain_has_no_q_process():
    """solve_spectral refuses a one-state chain (no gap), and so does
    h_transform given a hand-made triple: its L_Q would be [[0]], a state
    with no rate for the jump tables."""
    from qslab.spectral import SpectralTriple

    one = SpectralTriple(lambda0=1.0, alpha=np.ones(1), eta=np.ones(1), gamma=1.0,
                         residuals=(np.zeros(1), np.zeros(1)))
    with pytest.raises(NumericalError) as exc:
        qslab.h_transform(qslab.validate_chain([[-1.0]]), one)
    assert exc.value.code == "degenerate-gap"


def test_psi_carries_the_weight(m2asym_triple, m2asym_bundle):
    psi1 = np.array([1.0, 3.0])
    qp = qslab.h_transform(m2asym_bundle.chain, m2asym_triple, psi1)
    weights = paper_checks.q_weights(qp)
    np.testing.assert_allclose(weights.psi, psi1 / m2asym_triple.eta, rtol=0, atol=0)
    assert weights.c == weights.psi.min()


def test_q_marginal_basics(m2sym_qproc):
    init = np.array([1.0, 0.0])
    np.testing.assert_allclose(
        oracles.q_marginal(m2sym_qproc, init, 0.0), init, rtol=0, atol=1e-15
    )
    got = oracles.q_marginal(m2sym_qproc, init, 1.0)
    e2 = np.exp(-2.0)
    np.testing.assert_allclose(
        got, [(1 + e2) / 2.0, (1 - e2) / 2.0], rtol=0, atol=1e-14
    )
    with pytest.raises(ValidationError):
        oracles.q_marginal(m2sym_qproc, init, -1.0)


def test_q_ergodicity_m2sym_decay_is_pure_exponential(m2sym_qproc):
    grid = [0.0, 0.5, 1.0, 2.0, 4.0]
    devs, rate = paper_checks.q_ergodicity(m2sym_qproc, grid)
    for t, dev in zip(grid, devs):
        assert abs(dev - np.exp(-2.0 * t)) < 1e-12
        assert abs(dev * np.exp(2.0 * t) - 1.0) < 1e-10
    assert abs(rate + 2.0) < 1e-9


def test_q_ergodicity_bd5_rate_near_gamma(bd5_qproc):
    gamma = bd5_qproc.triple.gamma
    _, rate = paper_checks.q_ergodicity(bd5_qproc, np.array([5.0, 10.0, 15.0]) / gamma)
    assert abs(rate + gamma) < 0.05 * gamma


def test_q_ergodicity_implied_c_is_the_certificate_profile(
        m2sym_bundle, m2asym_bundle, bd5_bundle, random_chain_set):
    """By the intertwining, the Q-side deviation ratio times e^{gamma t} is
    the certificate's ratio at t, whatever the weight psi1."""
    chains = [b.chain for b in (m2sym_bundle, m2asym_bundle, bd5_bundle)] + random_chain_set
    for chain in chains:
        triple = qslab.solve_spectral(chain)
        psi1 = 1.0 + np.arange(chain.n) / chain.n
        grid = qslab.default_time_grid(triple.gamma)
        devs, _ = paper_checks.q_ergodicity(qslab.h_transform(chain, triple, psi1), grid)
        profile = certification_profile(chain, triple, psi1, grid)
        for t, dev, (t_cert, ratio) in zip(grid, devs, profile):
            assert t == t_cert
            assert abs(dev * np.exp(triple.gamma * t) - ratio) <= 1e-10 * ratio


def test_conditional_marginal_at_equal_horizons(bd5_bundle):
    mu = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    t = 2.0
    got = oracles.conditional_marginal(bd5_bundle.chain, mu, t, t)
    direct = mu @ expm(t * bd5_bundle.chain.sub_generator)
    np.testing.assert_allclose(got, direct / direct.sum(), rtol=0, atol=1e-14)
    with pytest.raises(ValidationError):
        oracles.conditional_marginal(bd5_bundle.chain, mu, 2.0, 1.0)


def test_conditional_marginal_survives_fast_uniform_killing():
    """Killing 20 at both states: survival to T = 60 is e^{-1200}, yet the
    conditioned law at t = 1 is the unkilled swap chain's."""
    killed = qslab.validate_chain([[-21.0, 1.0], [1.0, -21.0]])
    swap = np.array([[-1.0, 1.0], [1.0, -1.0]])
    mu = np.array([0.7, 0.3])
    got = oracles.conditional_marginal(killed, mu, 1.0, 60.0)
    np.testing.assert_allclose(got, mu @ expm(swap), rtol=0, atol=1e-12)


def test_conditional_equals_q_marginal_when_eta_flat(m2sym_qproc, m2sym_cert):
    """Flat eta: conditioning deeper than t changes nothing."""
    mu = np.array([1.0, 0.0])
    for t, T in ((0.5, 0.5), (0.5, 3.0), (1.0, 9.0)):
        rep = qslab.conditional_vs_q_gap(m2sym_qproc, mu, t, T, m2sym_cert)
        assert rep.tv_gap < 1e-12
        assert rep.tv_gap_sum < 1e-12


def test_gap_report_fields_are_consistent(m2asym_bundle, m2asym_triple):
    chain, tr = m2asym_bundle.chain, m2asym_triple
    mu = np.array([1.0, 0.0])
    psi1 = np.ones(2)
    cert = qslab.certify_ergodicity(chain, tr, psi1, qslab.default_time_grid(tr.gamma))
    rep = qslab.conditional_vs_q_gap(qslab.h_transform(chain, tr, psi1), mu, 1.0, 3.0, cert)
    assert abs(rep.tv_gap_sum - 2.0 * rep.tv_gap) < 1e-15
    assert rep.tv_gap_sum <= 2.0
    ratio = (mu @ psi1) / (mu @ tr.eta)
    expect_bound = cert.C * ratio * np.exp(-tr.gamma * (rep.T - rep.t))
    assert abs(rep.bound - expect_bound) < 1e-12
    expect_thresh = np.log(2.0 * cert.C * ratio) / tr.gamma
    assert abs(rep.threshold_T - expect_thresh) < 1e-12
    assert rep.threshold_ok == (rep.T >= rep.threshold_T)


def test_gap_respects_bound_past_threshold(m2asym_qproc, m2asym_cert):
    mu = np.array([1.0, 0.0])
    gaps = []
    for dT in (1.0, 2.0, 3.0, 4.0):
        rep = qslab.conditional_vs_q_gap(m2asym_qproc, mu, 1.0, 1.0 + dT, m2asym_cert)
        gaps.append(rep.tv_gap)
        if rep.threshold_ok:
            assert rep.tv_gap <= rep.bound
    assert all(a > b for a, b in zip(gaps, gaps[1:]))  # decreasing in T


def test_gap_rate_matches_gamma(m2asym_triple, m2asym_qproc, m2asym_cert):
    slope, reports = paper_checks.fit_gap_rate(
        m2asym_qproc, np.array([1.0, 0.0]), 1.0,
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], m2asym_cert,
    )
    assert abs(slope + m2asym_triple.gamma) < 0.1 * m2asym_triple.gamma
    assert all(r.tv_gap_sum <= 2.0 for r in reports)


def _gap_allowance(n):
    """A-priori allowance, not fitted to observed errors, for a total-variation
    gap between two laws on n states: a few roundings of eps per entry."""
    return 4.0 * n * np.finfo(float).eps


def _six_state_ladder(rng, one_way):
    """Up-rates U(0.5, 1.5), down-rates 10^U(-3, -0.5) U(0.5, 1.5), killing
    5 at state 0; one_way adds an edge of 0.3 from state 5 to state 2, which
    makes the chain non-reversible."""
    up = rng.uniform(0.5, 1.5, 5)
    down = 10 ** rng.uniform(-3.0, -0.5, 5) * rng.uniform(0.5, 1.5, 5)
    L = np.diag(up, 1) + np.diag(down, -1)
    L[5, 2] = 0.3 if one_way else 0.0
    np.fill_diagonal(L, -L.sum(axis=1) - np.eye(6)[0] * 5.0)
    return L


def _mpmath_gap(L, mu, t, T):
    """(1/2) sum |cond - q| at 40 digits: mu e^{tL} weighted by e^{(T-t)L} 1
    and by the leading right eigenvector, each normalised."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        A, n = mp.matrix(L.tolist()), L.shape[0]
        w, R = mp.eig(A, left=False, right=True)
        lead = max(range(n), key=lambda j: mp.re(w[j]))
        eta = [mp.re(R[y, lead]) for y in range(n)]
        at_t = (mp.matrix([list(mu)]) * mp.expm(A * t)).tolist()[0]
        surv = mp.expm(A * (mp.mpf(T) - t)) * mp.matrix([1.0] * n)
        laws = []
        for weight in (surv, eta):
            num = [at_t[y] * weight[y] for y in range(n)]
            laws.append([v / mp.fsum(num) for v in num])
        return float(mp.fsum(abs(c - q) for c, q in zip(*laws)) / 2)


def test_gap_matches_mpmath_on_drifted_ladders():
    """Reversible and non-reversible ladders, drifted away from the killing
    state, at t = 1 and T = 1 + 4/gamma."""
    rng = np.random.default_rng(7)
    mu = np.full(6, 1.0 / 6.0)
    for one_way in (False, True, False, True):
        L = _six_state_ladder(rng, one_way)
        chain = qslab.validate_chain(L)
        assert chain.reversible != one_way
        triple = qslab.solve_spectral(chain)
        cert = qslab.certify_ergodicity(chain, triple, np.ones(6),
                                        qslab.default_time_grid(triple.gamma))
        T = 1.0 + 4.0 / triple.gamma
        rep = qslab.conditional_vs_q_gap(qslab.h_transform(chain, triple), mu, 1.0, T, cert)
        assert abs(rep.tv_gap - _mpmath_gap(L, mu, 1.0, T)) <= _gap_allowance(6)


def test_gap_matches_the_l_q_route(bd5_bundle):
    """The gap against the two test references, the Q-process law by e^{tL_Q}.
    Far past the horizon both gaps vanish, so the gap's Q-process law and
    q_marginal each lie within twice the allowance of the same conditioned law."""
    from conftest import CYCLE_GENERATOR
    for chain in (bd5_bundle.chain, qslab.validate_chain(CYCLE_GENERATOR)):
        triple = qslab.solve_spectral(chain)
        qp = qslab.h_transform(chain, triple)
        cert = qslab.certify_ergodicity(chain, triple, np.ones(chain.n),
                                        qslab.default_time_grid(triple.gamma))
        mu = np.eye(chain.n)[0]
        for t in (0.0, 1.0, 3.0):
            for decays in (0.0, 1.0, 4.0, 40.0):
                T = t + decays / triple.gamma
                rep = qslab.conditional_vs_q_gap(qp, mu, t, T, cert)
                ref = 0.5 * np.abs(oracles.conditional_marginal(chain, mu, t, T)
                                   - oracles.q_marginal(qp, qp.start(mu)[0], t)).sum()
                assert abs(rep.tv_gap - ref) <= _gap_allowance(chain.n)
                if decays == 40.0:
                    assert max(rep.tv_gap, ref) <= _gap_allowance(chain.n)


def test_marginals_through_expm_refuse_times_past_the_rounding_floor():
    """A chain that is not reversible keeps expm, whose squarings at
    t = 1e12 would lose more than 1e-6; the eigenbasis of a reversible
    chain has no squarings and serves any t."""
    from conftest import CYCLE_GENERATOR
    chain = qslab.validate_chain(CYCLE_GENERATOR)
    triple = qslab.solve_spectral(chain)
    qp = qslab.h_transform(chain, triple)
    mu = np.full(3, 1.0 / 3.0)
    for t in (1e12, 1e300):
        with pytest.raises(NumericalError) as exc:
            oracles.q_marginal(qp, mu, t)
        assert exc.value.code == "overflow-guard"
        with pytest.raises(NumericalError):
            oracles.conditional_marginal(chain, mu, 1.0, t)
    np.testing.assert_allclose(oracles.q_marginal(qp, mu, 10.0), qp.beta, rtol=0, atol=1e-12)
    bd5 = qslab.resolve_model("bd5").chain
    bd5_qp = qslab.h_transform(bd5, qslab.solve_spectral(bd5))
    np.testing.assert_allclose(oracles.q_marginal(bd5_qp, np.eye(5)[0], 1e300), bd5_qp.beta,
                               rtol=1e-13, atol=0)


def test_conditional_marginal_refuses_negative_times(bd5_bundle):
    with pytest.raises(ValidationError):
        oracles.conditional_marginal(bd5_bundle.chain, np.eye(5)[0], -1.0, 1.0)


# Reference laws from mpmath 1.3.0 at 90 digits: eigsy of the symmetric form S
# = (w, Q) gives e^{tL}(x, y) = sum_j Q_xj Q_yj e^{t w_j} (birth/death)^{(y-x)/2}.
# Entries not listed are below 1e-13.
# Birth 1, death 3, n = 60, from state 60: the law at t = 1 given survival
# past T = 5, states 38..60.
DRIFTED_CONDITIONAL = (
    6.05405035398183e-13, 4.47269520552492e-12, 3.15634502223351e-11, 2.12299039038375e-10,
    1.35776247621078e-9, 8.23509763795123e-9, 4.72297643236607e-8, 2.55301086520951e-7,
    1.29597326554614e-6, 6.15260233851306e-6, 2.71899905904686e-5, 0.000111254283131155,
    0.000418875443715432, 0.00144064713262595, 0.00448740639667547, 0.0125285831569511,
    0.0309582513989221, 0.0666417264156989, 0.122461104517696, 0.186999364518678,
    0.228561556994831, 0.211369308715032, 0.133986970087107,
)
# Birth 1, death 2, n = 60, from state 1: the Q-process law at t = 0.5,
# e^{lambda0 t} e^{tL}(1, y) eta_y / eta_1, states 1..15.
DRIFTED_Q_MARGINAL = (
    0.30971450000209, 0.405031103299657, 0.205983932045846, 0.0629994564637331,
    0.0136449226134112, 0.00227828176594523, 0.000308835232158839, 3.51904942450837e-5,
    3.45556684306762e-6, 2.97939837657977e-7, 2.28858643202613e-8, 1.58446374560269e-9,
    9.98153621394326e-11, 5.76691838049456e-12, 3.07623829407916e-13,
)


def _drifted_ladder(n, death):
    return qslab.build_birth_death(n, [1.0] * (n - 1) + [0.0], [death] * n)


@pytest.mark.parametrize("law", ["conditional", "q"])
def test_drifted_ladder_marginals_match_mpmath(law):
    """pi spans 28 decades on the first ladder: read off the eigenbasis the
    law carried errors of 1e-4 and negative entries, since entry (x, y)
    carries eigh's rounding times sqrt(pi_y / pi_x) = 3^{14.5}.  Such an
    exponential comes from expm; the Q-process's measure beta spans only
    400, so its law keeps the eigenbasis."""
    n = 60
    if law == "conditional":
        got = oracles.conditional_marginal(_drifted_ladder(n, 3.0), np.eye(n)[-1], 1.0, 5.0)
        want = np.zeros(n)
        want[n - len(DRIFTED_CONDITIONAL):] = DRIFTED_CONDITIONAL
    else:
        chain = _drifted_ladder(n, 2.0)
        qp = qslab.h_transform(chain, qslab.solve_spectral(chain))
        got = oracles.q_marginal(qp, np.eye(n)[0], 0.5)
        want = np.zeros(n)
        want[:len(DRIFTED_Q_MARGINAL)] = DRIFTED_Q_MARGINAL
    assert got.min() >= -1e-13  # nonnegative up to rounding
    assert abs(got.sum() - 1.0) <= 1e-10
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
