import numpy as np
import pytest
from scipy.linalg import expm

import qslab
from qslab.errors import NumericalError, ValidationError
from qslab.spectral import certification_profile


def test_m2sym_transform_is_exact(m2sym_qproc):
    # eta = 1, lambda0 = 1: the transform only removes the killing
    np.testing.assert_allclose(
        m2sym_qproc.q_generator, [[-1.0, 1.0], [1.0, -1.0]], rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(m2sym_qproc.beta, [0.5, 0.5], rtol=0, atol=1e-14)
    np.testing.assert_allclose(m2sym_qproc.psi, [1.0, 1.0], rtol=0, atol=0)
    assert m2sym_qproc.c == 1.0


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
    )
    with pytest.raises(NumericalError) as exc:
        qslab.h_transform(m2sym_bundle.chain, bad)
    assert exc.value.code == "zero-eta"


def test_psi_carries_the_weight(m2asym_triple, m2asym_bundle):
    psi1 = np.array([1.0, 3.0])
    qp = qslab.h_transform(m2asym_bundle.chain, m2asym_triple, psi1)
    np.testing.assert_allclose(qp.psi, psi1 / m2asym_triple.eta, rtol=0, atol=0)
    assert qp.c == qp.psi.min()


def test_q_marginal_basics(m2sym_qproc):
    init = np.array([1.0, 0.0])
    np.testing.assert_allclose(
        qslab.q_marginal(m2sym_qproc, init, 0.0), init, rtol=0, atol=1e-15
    )
    got = qslab.q_marginal(m2sym_qproc, init, 1.0)
    e2 = np.exp(-2.0)
    np.testing.assert_allclose(
        got, [(1 + e2) / 2.0, (1 - e2) / 2.0], rtol=0, atol=1e-14
    )
    with pytest.raises(ValidationError):
        qslab.q_marginal(m2sym_qproc, init, -1.0)


def test_q_ergodicity_m2sym_decay_is_pure_exponential(m2sym_qproc):
    grid = [0.0, 0.5, 1.0, 2.0, 4.0]
    rep = qslab.check_q_ergodicity(m2sym_qproc, grid)
    for (t, dev, implied), (_, tv, _) in zip(rep.rows, rep.tv_rows):
        assert abs(dev - np.exp(-2.0 * t)) < 1e-12
        assert abs(tv - dev) < 1e-14  # psi = 1 makes the two norms agree
        assert abs(implied - 1.0) < 1e-10
    assert abs(rep.fitted_rate + 2.0) < 1e-9


def test_q_ergodicity_bd5_rate_near_gamma(bd5_qproc):
    grid = np.array([5.0, 10.0, 15.0]) / bd5_qproc.gamma
    rep = qslab.check_q_ergodicity(bd5_qproc, grid)
    assert abs(rep.fitted_rate + bd5_qproc.gamma) < 0.05 * bd5_qproc.gamma


def test_q_ergodicity_implied_c_is_the_certificate_profile(
        m2sym_bundle, m2asym_bundle, bd5_bundle, random_chain_set):
    """By the intertwining, the Q-side deviation ratio times e^{gamma t} is
    the certificate's ratio at t, whatever the weight psi1."""
    chains = [b.chain for b in (m2sym_bundle, m2asym_bundle, bd5_bundle)] + random_chain_set
    for chain in chains:
        triple = qslab.solve_spectral(chain)
        psi1 = 1.0 + np.arange(chain.n) / chain.n
        grid = qslab.default_time_grid(triple.gamma)
        rep = qslab.check_q_ergodicity(qslab.h_transform(chain, triple, psi1), grid)
        profile = certification_profile(chain, triple, psi1, grid)
        for (t, _, implied), (t_cert, ratio) in zip(rep.rows, profile):
            assert t == t_cert
            assert abs(implied - ratio) <= 1e-10 * ratio


def test_conditional_marginal_at_equal_horizons(bd5_bundle):
    mu = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    t = 2.0
    got = qslab.conditional_marginal(bd5_bundle.chain, mu, t, t)
    direct = mu @ expm(t * bd5_bundle.chain.sub_generator)
    np.testing.assert_allclose(got, direct / direct.sum(), rtol=0, atol=1e-14)
    with pytest.raises(ValidationError):
        qslab.conditional_marginal(bd5_bundle.chain, mu, 2.0, 1.0)


def test_conditional_marginal_survives_fast_uniform_killing():
    """Killing 20 at both states: survival to T = 60 is e^{-1200}, yet the
    conditioned law at t = 1 is the unkilled swap chain's."""
    killed = qslab.validate_chain([[-21.0, 1.0], [1.0, -21.0]])
    swap = np.array([[-1.0, 1.0], [1.0, -1.0]])
    mu = np.array([0.7, 0.3])
    got = qslab.conditional_marginal(killed, mu, 1.0, 60.0)
    np.testing.assert_allclose(got, mu @ expm(swap), rtol=0, atol=1e-12)


def test_conditional_equals_q_marginal_when_eta_flat(m2sym_bundle, m2sym_triple):
    """Flat eta: conditioning deeper than t changes nothing."""
    mu = np.array([1.0, 0.0])
    for t, T in ((0.5, 0.5), (0.5, 3.0), (1.0, 9.0)):
        rep = qslab.conditional_vs_q_gap(m2sym_bundle.chain, m2sym_triple, mu, t, T)
        assert rep.tv_gap < 1e-12
        assert rep.tv_gap_sum < 1e-12


def test_gap_report_fields_are_consistent(m2asym_bundle, m2asym_triple):
    chain, tr = m2asym_bundle.chain, m2asym_triple
    mu = np.array([1.0, 0.0])
    psi1 = np.ones(2)
    cert = qslab.certify_ergodicity(chain, tr, psi1, qslab.default_time_grid(tr.gamma))
    rep = qslab.conditional_vs_q_gap(chain, tr, mu, 1.0, 3.0, psi1, cert)
    assert abs(rep.tv_gap_sum - 2.0 * rep.tv_gap) < 1e-15
    assert rep.tv_gap_sum <= 2.0
    ratio = (mu @ psi1) / (mu @ tr.eta)
    expect_bound = cert.C * ratio * np.exp(-tr.gamma * (rep.T - rep.t))
    assert abs(rep.bound - expect_bound) < 1e-12
    expect_thresh = np.log(2.0 * cert.C * ratio) / tr.gamma
    assert abs(rep.threshold_T - expect_thresh) < 1e-12
    assert rep.threshold_ok == (rep.T >= rep.threshold_T)


def test_gap_respects_bound_past_threshold(m2asym_bundle, m2asym_triple):
    chain, tr = m2asym_bundle.chain, m2asym_triple
    mu = np.array([1.0, 0.0])
    gaps = []
    for dT in (1.0, 2.0, 3.0, 4.0):
        rep = qslab.conditional_vs_q_gap(chain, tr, mu, 1.0, 1.0 + dT)
        gaps.append(rep.tv_gap)
        if rep.threshold_ok:
            assert rep.tv_gap <= rep.bound
    assert all(a > b for a, b in zip(gaps, gaps[1:]))  # decreasing in T


def test_gap_rate_matches_gamma(m2asym_bundle, m2asym_triple):
    slope, reports = qslab.fit_gap_rate(
        m2asym_bundle.chain, m2asym_triple, np.array([1.0, 0.0]), 1.0,
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    )
    assert abs(slope + m2asym_triple.gamma) < 0.1 * m2asym_triple.gamma
    assert all(r.tv_gap_sum <= 2.0 for r in reports)
