"""Acceptance gate: thirteen pass/fail checks at their stated tolerances.

Each test prints one [PASS] line with the measured margin; `pytest -v`
shows one line per criterion.  Monte Carlo checks run single-threaded with
pinned seeds, so every number here is reproducible bit for bit.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from scipy.linalg import expm

import qslab

import paper_checks

F1 = np.array([1.0, -1.0])


@pytest.fixture(scope="module")
def certs(m2sym_bundle, m2sym_triple, bd5_bundle, bd5_triple):
    out = {}
    for name, bundle, tr in (("m2sym", m2sym_bundle, m2sym_triple),
                             ("bd5", bd5_bundle, bd5_triple)):
        out[name] = qslab.certify_ergodicity(
            bundle.chain, tr, np.ones(bundle.chain.n),
            qslab.default_time_grid(tr.gamma))
    return out


def test_criterion_01_spectral_exactness(m2sym_triple, m2asym_triple):
    start = time.monotonic()
    errs = [
        abs(m2sym_triple.lambda0 - 1.0),
        abs(m2sym_triple.gamma - 2.0),
        np.abs(m2sym_triple.alpha - 0.5).max(),
        np.abs(m2sym_triple.eta - 1.0).max(),
        abs(m2asym_triple.lambda0 - (3.0 - np.sqrt(2.0))),
    ]
    elapsed = time.monotonic() - start
    assert max(errs) < 1e-10
    assert elapsed < 1.0
    print(f"[PASS] criterion 1: spectral exactness, worst error {max(errs):.3g} "
          f"(tol 1e-10), {elapsed:.3f}s")


def test_criterion_02_eigen_identities(random_chain_set):
    start = time.monotonic()
    worst = 0.0
    for chain in random_chain_set:
        tr = qslab.solve_spectral(chain)
        L = chain.sub_generator
        for t in (0.5, 2.0):
            P = expm(t * L)
            decay = np.exp(-tr.lambda0 * t)
            worst = max(worst, np.abs(tr.alpha @ P - decay * tr.alpha).max())
            worst = max(worst, np.abs(P @ tr.eta - decay * tr.eta).max())
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"[PASS] criterion 2: eigen-identity residuals on 20 random chains, "
          f"worst {worst:.3g} (tol 1e-9), {elapsed:.2f}s")


def test_criterion_03_intertwining_and_beta_invariance(random_chain_set):
    worst_tw, worst_beta = 0.0, 0.0
    for chain in random_chain_set:
        tr = qslab.solve_spectral(chain)
        qp = qslab.h_transform(chain, tr)
        L = chain.sub_generator
        for t in (0.5, 2.0):
            lhs = expm(t * qp.q_generator)
            rhs = np.exp(tr.lambda0 * t) * (
                expm(t * L) * tr.eta[None, :] / tr.eta[:, None])
            worst_tw = max(worst_tw, np.abs(lhs - rhs).max())
            worst_beta = max(worst_beta, np.abs(qp.beta @ lhs - qp.beta).max())
    assert worst_tw <= 1e-9
    assert worst_beta <= 1e-10
    print(f"[PASS] criterion 3: intertwining {worst_tw:.3g} (tol 1e-9), "
          f"beta invariance {worst_beta:.3g} (tol 1e-10)")


def test_criterion_04_sigma2_cross_oracle(random_chain_set, m2sym_qproc):
    worst_bound = 0.0
    for chain in random_chain_set:
        tr = qslab.solve_spectral(chain)
        qp = qslab.h_transform(chain, tr)
        f = np.zeros(chain.n)
        f[0], f[-1] = 1.0, -1.0
        sigma2 = qslab.sigma2_poisson(qp, f)
        quadrature, _, error_bound = qslab.sigma2_quadrature(qp, f)  # horizon 40/gamma
        assert abs(sigma2 - quadrature) <= error_bound
        assert error_bound <= 1e-8
        worst_bound = max(worst_bound, error_bound)
    m2 = qslab.sigma2_poisson(m2sym_qproc, F1)
    assert abs(m2 - 1.0) < 1e-10
    print(f"[PASS] criterion 4: sigma2 oracles within recorded bounds "
          f"(worst bound {worst_bound:.3g} <= 1e-8); M2SYM sigma2 = "
          f"{m2:.12f} (= 1 within 1e-10)")


def test_criterion_05_even_moments(m2sym_qproc, bd5_bundle, bd5_triple,
                                   bd5_qproc, certs):
    start = time.monotonic()
    # closed form on M2SYM: m2(t)/t = 1 - (1 - e^{-2t})/(2t) from beta
    worst = 0.0
    for t in (5.0, 10.0, 20.0):
        mv = qslab.exact_conditional_moments(m2sym_qproc, m2sym_qproc.beta, F1, 2, t)
        closed = 1.0 - (1.0 - np.exp(-2.0 * t)) / (2.0 * t)
        worst = max(worst, abs(mv.m[2] / t - closed))
    assert worst < 1e-9

    # BD5: slopes and explicit bounds for k = 1, 2, 3
    obs = qslab.make_observable(bd5_qproc, bd5_bundle.f)
    sigma2 = qslab.sigma2_poisson(bd5_qproc, obs)
    beta = bd5_qproc.beta
    ts = [20.0, 40.0, 80.0, 160.0]
    slopes = []
    for k in (1, 2, 3):
        errs, rate = paper_checks.even_moment_errors(
            bd5_qproc, beta, obs.f_centered, k, ts, sigma2)
        assert -1.3 <= rate <= -0.8, f"k={k}: slope {rate}"
        assert np.all(errs <= paper_checks.even_moment_bounds(certs["bd5"], bd5_qproc, beta, k, ts))
        slopes.append(rate)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"[PASS] criterion 5: M2SYM closed form within {worst:.3g} (tol 1e-9); "
          f"BD5 slopes {[f'{s:.2f}' for s in slopes]} in [-1.3,-0.8], "
          f"constants bound respected, {elapsed:.1f}s")


def test_criterion_06_odd_moments(m2asym_qproc):
    mu = np.array([1.0, 0.0])
    rates = []
    for k in (0, 1):
        _, rate = paper_checks.odd_moment_decay(
            m2asym_qproc, mu, F1, k, [20.0, 40.0, 80.0, 160.0])
        assert -0.7 <= rate <= -0.3, f"k={k}: rate {rate}"
        rates.append(rate)
    print(f"[PASS] criterion 6: odd-moment decay rates "
          f"{[f'{r:.3f}' for r in rates]} in [-0.7,-0.3] (M2ASYM, delta_1)")


def test_criterion_07_constants_exact(m2sym_qproc, bd5_qproc, certs):
    # the closed forms in exact rational arithmetic; test_variance_clt
    # compares them with their recursions
    for name, qp in (("m2sym", m2sym_qproc), ("bd5", bd5_qproc)):
        tab_C1, _, tab_Ck = paper_checks.constants(certs[name], paper_checks.q_weights(qp), K=8)
        g = Fraction(float(certs[name].gamma))
        C1 = 1 / g + 1 / g ** 2
        assert tab_C1 == float(C1)
        for k in range(1, 9):
            # exact rational identity, rounded once to a double at the end
            assert tab_Ck[k - 1] == float(C1 * k / factorial(k - 1))
    print("[PASS] criterion 7: C_1 and the C_k = C_1 k/(k-1)! identity hold "
          "exactly (Fractions, k <= 8)")


def test_criterion_08_uniform_charfun_bound(m2sym_qproc, bd5_qproc, certs):
    checked = 0
    for name, qp, f in (("m2sym", m2sym_qproc, F1),
                        ("bd5", bd5_qproc, np.eye(5)[0])):
        mu = np.eye(qp.n)[0]
        sigma2 = qslab.sigma2_poisson(qp, f)
        for omega in (0.5, 1.0, 2.0):
            sup_gaps, bounds, convs = paper_checks.charfun_bound(
                qp, certs[name], mu, f, omega, [10.0, 40.0, 160.0], sigma2)
            assert np.all(sup_gaps <= bounds), f"{name}, omega={omega}"
            for a, b in zip(convs, convs[1:]):
                assert b <= 1.1 * a, f"{name}, omega={omega}: {convs}"
            checked += 1
    print(f"[PASS] criterion 8: sup-over-g gap within the certified bound and "
          f"Gaussian convergence monotone (10% slack) for {checked} "
          f"(model, omega) pairs")


def test_criterion_09_charfun_gaussian_limit(m2sym_bundle, m2asym_bundle,
                                             bd5_bundle):
    start = time.monotonic()
    worst = 0.0
    for bundle in (m2sym_bundle, m2asym_bundle, bd5_bundle):
        tr = qslab.solve_spectral(bundle.chain)
        qp = qslab.h_transform(bundle.chain, tr)
        obs = qslab.make_observable(qp, bundle.f)
        sigma2 = qslab.sigma2_poisson(qp, obs)
        t = 100.0 / tr.gamma
        for omega in (-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0):
            cf = qslab.exact_conditional_charfuns(
                bundle.chain, tr.alpha, obs.f_centered, [omega], t)[0]
            gap = abs(cf - np.exp(-sigma2 * omega ** 2 / 2.0))
            worst = max(worst, gap)
    elapsed = time.monotonic() - start
    assert worst <= 0.05
    assert elapsed < 10.0
    print(f"[PASS] criterion 9: |charfun - Gaussian| worst {worst:.4f} "
          f"(tol 0.05) at t = 100/gamma, |omega| <= 2, {elapsed:.2f}s")


def test_criterion_10_monte_carlo_clt(m2sym_bundle, m2sym_qproc):
    start = time.monotonic()
    qp, mu = m2sym_qproc, m2sym_bundle.mu
    n = 100000
    emp, *rest = qslab.conditional_clt_sample(qp, mu, F1, [200.0, 25.0, 100.0, 400.0], n,
                                              method="qprocess", seed=0)
    d200 = qslab.kolmogorov_distance(emp, 1.0)
    assert d200 <= 0.02
    ds = []
    for e in rest:
        ds.append(qslab.kolmogorov_distance(e, 1.0))
    se = 0.26 / np.sqrt(n)  # asymptotic std of the KS statistic
    for a, b in zip(ds, ds[1:]):
        assert b <= a + 2.0 * se, f"sequence {ds} not nonincreasing within 2 se"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"[PASS] criterion 10: d_Kolm(t=200, n=1e5) = {d200:.5f} (tol 0.02); "
          f"t in (25,100,400) gives {[f'{d:.5f}' for d in ds]} nonincreasing "
          f"within 2 se = {2 * se:.5f}, {elapsed:.0f}s single-threaded")


def test_criterion_11_conditional_gap_rate(m2sym_bundle, m2sym_qproc, m2sym_cert,
                                           m2asym_triple, m2asym_qproc, m2asym_cert):
    slope, _ = paper_checks.fit_gap_rate(
        m2asym_qproc, np.array([1.0, 0.0]), 1.0,
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], m2asym_cert)
    gamma = m2asym_triple.gamma
    assert abs(slope + gamma) <= 0.1 * gamma
    worst = 0.0
    for t, T in ((0.5, 0.5), (0.5, 2.0), (1.0, 5.0), (2.0, 10.0)):
        rep = qslab.conditional_vs_q_gap(m2sym_qproc, m2sym_bundle.mu, t, T, m2sym_cert)
        worst = max(worst, rep.tv_gap)
    assert worst <= 1e-10
    print(f"[PASS] criterion 11: M2ASYM gap slope {slope:.4f} vs -gamma = "
          f"{-gamma:.4f} (10% tol); M2SYM gaps <= {worst:.3g} (tol 1e-10)")


def test_criterion_12_quasi_ergodic_deviation(m2sym_bundle, m2sym_qproc,
                                              bd5_bundle, bd5_triple, bd5_qproc):
    # exact closed form + MC agreement on M2SYM
    rep = qslab.quasi_ergodic_check(
        m2sym_qproc, m2sym_bundle.mu, F1, qslab.conditional_clt_sample(
            m2sym_qproc, m2sym_bundle.mu, F1, [10.0, 20.0], 20000, method="qprocess", seed=2))
    for t, mc, stderr, exact in rep.rows:
        closed = 1.0 / t - (1.0 - np.exp(-2.0 * t)) / (2.0 * t ** 2)
        assert abs(exact - closed) < 1e-9
        assert abs(mc - exact) <= 3.0 * stderr
    # decay exponent on BD5 from the quasi-stationary start
    rep5 = qslab.quasi_ergodic_check(
        bd5_qproc, bd5_triple.alpha, bd5_bundle.f, qslab.conditional_clt_sample(
            bd5_qproc, bd5_triple.alpha, bd5_bundle.f, [20.0, 40.0, 80.0, 160.0], 20000,
            method="qprocess", seed=2))
    assert -1.3 <= rep5.fitted_rate <= -0.8
    # the surrogate samples follow the Q-process law; check them at 3 se
    # against their own exact moment, and record that the distance to the
    # true conditional value (the finite-t conditioning gap) stays small
    qp5 = qslab.h_transform(bd5_bundle.chain, bd5_triple)
    obs5 = qslab.make_observable(qp5, bd5_bundle.f)
    for t, mc, stderr, exact in rep5.rows:
        q_exact = qslab.exact_conditional_moments(
            qp5, qp5.beta, obs5.f_centered, 2, t).m[2] / t ** 2
        assert abs(mc - q_exact) <= 3.0 * stderr
        assert abs(mc - exact) <= 0.15 * exact
    print(f"[PASS] criterion 12: M2SYM oracle matches 1/t - (1-e^-2t)/(2t^2) "
          f"within 1e-9 and MC within 3 se; BD5 slope {rep5.fitted_rate:.3f} "
          f"in [-1.3,-0.8]")


def test_criterion_13_reproducibility(tmp_path):
    args = ["clt", "--model", "m2sym", "--t", "50", "--n", "5000",
            "--seed", "123", "--dump"]
    outs = [tmp_path / s for s in ("a", "b", "c")]
    for out, extra in zip(outs, ([], [], ["--threads", "8"])):
        r = subprocess.run([sys.executable, "-m", "qslab.cli", *args,
                            "--out", str(out), *extra],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
    for name in ("clt.csv", "clt_samples.txt"):
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref
        assert (outs[2] / name).read_bytes() == ref
    hashes = {json.loads((o / "manifest.json").read_text())["manifest_hash"]
              for o in outs}
    assert len(hashes) == 1
    print("[PASS] criterion 13: repeated runs byte-identical, including with "
          "--threads 8; one manifest hash for all three runs")
