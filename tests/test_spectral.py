import ast
import warnings
from dataclasses import FrozenInstanceError
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import qslab
from qslab import spectral
from qslab.chain_model import AbsorbedChain
from qslab.errors import NumericalError, QslabError, ValidationError
from qslab.spectral import certification_profile

import oracles
import paper_checks
from conftest import CYCLE_GENERATOR, make_random_chain


def test_m2sym_triple_is_exact(m2sym_triple):
    # L = -2I + swap: eigenvalues -1 and -3, flat eigenvectors
    tr = m2sym_triple
    assert abs(tr.lambda0 - 1.0) < 1e-12
    assert abs(tr.gamma - 2.0) < 1e-12
    np.testing.assert_allclose(tr.alpha, [0.5, 0.5], rtol=0, atol=1e-12)
    np.testing.assert_allclose(tr.eta, [1.0, 1.0], rtol=0, atol=1e-12)


def test_m2asym_triple_matches_hand_solution(m2asym_triple):
    """[[-3,1],[2,-3]]: characteristic roots -3 +- sqrt(2), solved by hand."""
    s2 = np.sqrt(2.0)
    tr = m2asym_triple
    assert abs(tr.lambda0 - (3.0 - s2)) < 1e-12
    assert abs(tr.gamma - 2.0 * s2) < 1e-12
    np.testing.assert_allclose(tr.alpha, [2.0 - s2, s2 - 1.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        tr.eta, [(2.0 + s2) / 4.0, (1.0 + s2) / 2.0], rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("n", [5, 30, 150])
def test_unit_ladder_rates_match_chebyshev_closed_form(n):
    """Unit-rate ladder of length n (bd5 at n = 5): -spec(L) = 2 - 2 cos((2j-1)
    pi / (2n+1)).  lambda0 in the form 4 sin^2, since 2 - 2 cos loses about
    2e-12 relative to cancellation at n = 150."""
    triple = qslab.solve_spectral(
        qslab.build_birth_death(n, [1.0] * (n - 1) + [0.0], [1.0] * n))
    lambda0 = 4.0 * np.sin(np.pi / (2 * (2 * n + 1))) ** 2
    assert abs(triple.lambda0 - lambda0) < 2e-12 * lambda0
    if n == 5:
        levels = 2.0 - 2.0 * np.cos(np.array([1, 3]) * np.pi / 11.0)
        assert abs(triple.lambda0 - levels[0]) < 1e-12
        assert abs(triple.gamma - (levels[1] - levels[0])) < 1e-12


def test_bd5_triple_against_power_iteration(bd5_bundle, bd5_triple):
    """Independent oracle: plain power iteration on exp(0.01 L), no eig()."""
    L = bd5_bundle.chain.sub_generator
    dt = 0.01
    P = expm(dt * L)
    v = np.ones(5)
    w = np.ones(5)
    for _ in range(20000):
        v = P @ v
        v /= np.linalg.norm(v)
        w = P.T @ w
        w /= np.linalg.norm(w)
    rho = (v @ P @ v) / (v @ v)
    lam0 = -np.log(rho) / dt
    assert abs(lam0 - bd5_triple.lambda0) < 1e-8
    alpha = w / w.sum()
    np.testing.assert_allclose(alpha, bd5_triple.alpha, rtol=0, atol=1e-8)
    eta = v / (alpha @ v)
    np.testing.assert_allclose(eta, bd5_triple.eta, rtol=0, atol=1e-8)


def test_normalizations_and_positivity(m2asym_triple, bd5_triple):
    for tr in (m2asym_triple, bd5_triple):
        assert abs(tr.alpha.sum() - 1.0) < 1e-12
        assert abs(tr.alpha @ tr.eta - 1.0) < 1e-12
        assert tr.alpha.min() > 0
        assert tr.eta.min() > 0


def test_survival_decay_from_quasi_stationary_start(
    m2sym_bundle, m2asym_bundle, bd5_bundle
):
    """Started from alpha, survival is exactly exponential."""
    for bundle in (m2sym_bundle, m2asym_bundle, bd5_bundle):
        tr = qslab.solve_spectral(bundle.chain)
        for t in (0.5, 2.0, 7.0):
            surv = (tr.alpha @ expm(t * bundle.chain.sub_generator)).sum()
            assert abs(surv - np.exp(-tr.lambda0 * t)) < 1e-10


def test_eigen_residuals_on_random_chains(random_chain_set):
    for chain in random_chain_set[:6]:
        tr = qslab.solve_spectral(chain)
        L = chain.sub_generator
        assert np.abs(tr.alpha @ L + tr.lambda0 * tr.alpha).max() < 1e-10
        assert np.abs(L @ tr.eta + tr.lambda0 * tr.eta).max() < 1e-10
        assert abs(tr.gamma - 1.0) < 1e-8  # the factory normalizes the gap


SHIFT_CHAINS = {
    "m2sym": qslab.m2sym, "m2asym": qslab.m2asym, "bd5": qslab.bd5,
    "cycle": lambda: qslab.validate_chain(CYCLE_GENERATOR),
    "random-dense": lambda: make_random_chain(np.random.default_rng(2026), n=12),
}


@pytest.mark.parametrize("name", list(SHIFT_CHAINS))
def test_shift_is_cached_read_only_and_minus_lambda0(name):
    """chain.shifted = (L - sI, s) is built once per chain and cannot be
    written, and s is -lambda0 of solve_spectral bit for bit; a Q-process
    is shifted by 0 and hands out its own generator."""
    chain = SHIFT_CHAINS[name]()
    A, s = chain.shifted
    assert chain.shifted[0] is A
    triple = qslab.solve_spectral(chain)
    assert s.hex() == (-triple.lambda0).hex()
    np.testing.assert_array_equal(A, chain.sub_generator - s * np.eye(chain.n))
    with pytest.raises(ValueError):
        A[0, 0] = 0.0
    with pytest.raises(FrozenInstanceError):
        chain.shifted = (A, s)
    qp = qslab.h_transform(chain, triple)
    assert qp.shifted[0] is qp.q_generator and qp.shifted[1] == 0.0


# calls that start an exponential at a time that is negative or not finite
TIME_PROBES = {
    "charfun-inf": lambda o: oracles.exact_conditional_charfun(o.chain, o.mu, o.f, 1.0, np.inf),
    "charfuns-inf": lambda o: qslab.exact_conditional_charfuns(o.chain, o.mu, o.f, [1.0], np.inf),
    "taylor-inf": lambda o: oracles.charfun_taylor_moments(o.chain, o.mu, o.f, np.inf),
    "taylor-neg": lambda o: oracles.charfun_taylor_moments(o.chain, o.mu, o.f, -1.0),
    "charfun-bound-inf": lambda o: paper_checks.charfun_bound(
        o.qp, o.cert, o.mu, o.f, 1.0, [np.inf], sigma2=1.0),
    "marginal-T-inf": lambda o: qslab.conditional_marginal(o.chain, o.mu, 1.0, np.inf),
    "q-marginal-inf": lambda o: qslab.q_marginal(o.qp, o.qp.beta, np.inf),
    "q-marginal-nan": lambda o: qslab.q_marginal(o.qp, o.qp.beta, np.nan),
    "q-gap-T-inf": lambda o: qslab.conditional_vs_q_gap(o.qp, o.mu, 1.0, np.inf, o.cert),
    "q-ergodicity-neg": lambda o: paper_checks.q_ergodicity(o.qp, [-1.0]),
}


@pytest.mark.parametrize("model", ["m2sym", "cycle"])
@pytest.mark.parametrize("probe", list(TIME_PROBES))
def test_exponentials_refuse_negative_or_non_finite_times(probe, model):
    """spectral.squarings and spectral.semigroup, where every exponential
    starts, refuse such a time with a coded error and no warning, on the
    symmetric basis (m2sym) and through expm (the cycle)."""
    chain = SHIFT_CHAINS[model]()
    triple = qslab.solve_spectral(chain)
    ones = np.ones(chain.n)
    o = SimpleNamespace(
        chain=chain, triple=triple, qp=qslab.h_transform(chain, triple), mu=ones / chain.n,
        f=np.linspace(-1.0, 1.0, chain.n),
        cert=qslab.certify_ergodicity(chain, triple, ones, qslab.default_time_grid(triple.gamma)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(QslabError) as exc:
            TIME_PROBES[probe](o)
    assert [str(w.message) for w in caught] == []
    assert exc.value.code == "validation" and exc.value.exit_code == 3


def test_time_rescaling_scales_rates_only(random_chain_set):
    chain = random_chain_set[0]
    tr = qslab.solve_spectral(chain)
    fast = qslab.validate_chain(3.0 * chain.sub_generator)
    tr3 = qslab.solve_spectral(fast)
    assert abs(tr3.lambda0 - 3.0 * tr.lambda0) < 1e-10
    assert abs(tr3.gamma - 3.0 * tr.gamma) < 1e-10
    np.testing.assert_allclose(tr3.alpha, tr.alpha, rtol=0, atol=1e-10)
    np.testing.assert_allclose(tr3.eta, tr.eta, rtol=0, atol=1e-10)


def test_no_killing_raises_from_solver():
    L = np.array([[-1.0, 1.0], [1.0, -1.0]])
    chain = AbsorbedChain(sub_generator=L, killing=np.zeros(2))
    with pytest.raises(ValidationError):
        qslab.solve_spectral(chain)


def test_degenerate_gap_raises():
    e = 1e-12
    chain = qslab.validate_chain([[-1.0 - 2 * e, e], [e, -1.0 - 2 * e]])
    with pytest.raises(NumericalError) as exc:
        qslab.solve_spectral(chain)
    assert exc.value.code == "degenerate-gap"
    assert exc.value.exit_code == 4


def test_weighted_norm_is_sup_over_bounded_functions():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.normal(size=6)
        psi = rng.uniform(1.0, 3.0, 6)
        # brute force over all sign vertices of |f| <= psi
        best = 0.0
        for bits in range(64):
            signs = np.array([1.0 if bits >> i & 1 else -1.0 for i in range(6)])
            best = max(best, abs(m @ (signs * psi)))
        assert abs(np.abs(m) @ psi - best) < 1e-12


def test_log_slope_needs_two_distinct_x():
    """A line is fitted only through two or more distinct x among the
    points with y > 0; repeated x, alone or beside a point with y = 0,
    give nan (numpy's polyfit returned a slope and a RankWarning)."""
    from qslab.spectral import log_slope

    assert abs(log_slope([1.0, 2.0, 3.0], np.exp([-1.0, -3.0, -5.0])) + 2.0) < 1e-12
    assert np.isnan(log_slope([5.0, 5.0], [0.3, 0.1]))
    assert np.isnan(log_slope([5.0, 5.0, 7.0], [0.3, 0.1, 0.0]))
    assert np.isnan(log_slope([2.0], [1.0]))
    assert abs(log_slope([5.0, 5.0, 7.0], [1.0, 1.0, np.exp(2.0)]) - 1.0) < 1e-12


def test_default_time_grid_shape():
    g = qslab.default_time_grid(2.0)
    assert g[0] == 0.0
    assert len(g) == 13
    assert np.all(np.diff(g) > 0)
    assert abs(g[-1] - 3.0) < 1e-12  # 6/gamma


def test_m2sym_profile_ratio_is_identically_one(m2sym_bundle, m2sym_triple):
    """Deviation e^{t} P_t - eta alpha has psi1-norm exactly e^{-2t} per row,
    so the gap-compensated ratio is 1 at every time."""
    grid = qslab.default_time_grid(2.0)
    prof = certification_profile(m2sym_bundle.chain, m2sym_triple, np.ones(2), grid)
    for _, ratio in prof:
        assert abs(ratio - 1.0) < 1e-10


@pytest.mark.parametrize("kill", [20.0, 300.0])
def test_profile_survives_fast_uniform_killing(kill):
    """Uniform killing: e^{lambda0 t} P_t is the unkilled swap chain's
    semigroup and gamma = 2, so the ratio is 1 at every grid time however
    large lambda0 t is."""
    chain = qslab.validate_chain([[-1.0 - kill, 1.0], [1.0, -1.0 - kill]])
    tr = qslab.solve_spectral(chain)
    assert abs(tr.gamma - 2.0) < 1e-9
    prof = certification_profile(chain, tr, np.ones(2), qslab.default_time_grid(tr.gamma))
    for _, ratio in prof:
        assert abs(ratio - 1.0) < 1e-12


def test_certificate_m2sym(m2sym_bundle, m2sym_triple):
    cert = qslab.certify_ergodicity(
        m2sym_bundle.chain, m2sym_triple, np.ones(2), qslab.default_time_grid(2.0)
    )
    assert abs(cert.worst_ratio - 1.0) < 1e-10
    assert abs(cert.C - 2.0) < 1e-10
    assert cert.slack_factor == 2.0
    assert cert.C == cert.slack_factor * cert.worst_ratio


def test_certificate_bound_holds_on_grid(bd5_bundle, bd5_triple):
    """Re-derive the deviations directly and check them against C psi1 e^{-gamma t},
    with a non-constant weight."""
    psi1 = 1.0 + 0.5 * np.arange(5)
    grid = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 9.0])
    cert = qslab.certify_ergodicity(bd5_bundle.chain, bd5_triple, psi1, grid)
    L = bd5_bundle.chain.sub_generator
    tr = bd5_triple
    for t in grid:
        M = np.exp(tr.lambda0 * t) * expm(t * L) - np.outer(tr.eta, tr.alpha)
        for x in range(5):
            lhs = np.abs(M[x]) @ psi1
            assert lhs <= cert.C * psi1[x] * np.exp(-tr.gamma * t) + 1e-12
    assert cert.argmax_t in grid
    prof = dict(certification_profile(bd5_bundle.chain, tr, psi1, grid))
    assert abs(prof[cert.argmax_t] - cert.worst_ratio) < 1e-12
    assert abs(max(prof.values()) - cert.worst_ratio) < 1e-12


def test_certificate_grid_validation(bd5_bundle, bd5_triple):
    psi1 = np.ones(5)
    with pytest.raises(ValidationError):
        qslab.certify_ergodicity(bd5_bundle.chain, bd5_triple, psi1, [])
    with pytest.raises(ValidationError):
        qslab.certify_ergodicity(bd5_bundle.chain, bd5_triple, psi1, [0.0, 2.0, 1.0, 9.0])
    with pytest.raises(ValidationError):
        # gamma ~ 0.609 so 5/gamma ~ 8.2; a grid topping out at 4 is too short
        qslab.certify_ergodicity(bd5_bundle.chain, bd5_triple, psi1, [0.0, 1.0, 4.0])


def test_certificate_example_grid_documented(bd5_bundle, bd5_triple):
    # the short documented grid {0.5,1,2,4,8} stays within the 5% tolerance
    cert = qslab.certify_ergodicity(
        bd5_bundle.chain, bd5_triple, np.ones(5), [0.5, 1.0, 2.0, 4.0, 8.0]
    )
    assert cert.C > 0
    assert np.isfinite(cert.worst_ratio)


# ---------------------------------------------------------------------------
# drifted birth-death ladders: reversible, far from normal, pi over many decades

def _drifted_ladder(n, birth, death):
    return qslab.build_birth_death(n, [birth] * (n - 1) + [0.0], [death] * n)


def _mpmath_spectrum(n, birth, death):
    """(lambda0, gamma) from mpmath's eigsy of the symmetric form at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        S = mp.matrix(n, n)
        for i in range(n):
            S[i, i] = -(birth if i < n - 1 else 0) - death
            if i < n - 1:
                S[i, i + 1] = S[i + 1, i] = mp.sqrt(mp.mpf(birth) * death)
        w = sorted(mp.eigsy(S, eigvals_only=True), reverse=True)
        return float(-w[0]), float(w[0] - w[1])


def test_drifted_ladder_spectrum_matches_mpmath():
    """Birth 1, death 3: dense eig found an eigen-residual of 1.3e-3 and
    stopped; the symmetric form gives lambda0 and gamma to 1e-12."""
    tr = qslab.solve_spectral(_drifted_ladder(60, 1.0, 3.0))
    lam0, gamma = _mpmath_spectrum(60, 1.0, 3.0)
    assert abs(tr.lambda0 - lam0) <= 1e-12 * lam0
    assert abs(tr.gamma - gamma) <= 1e-12 * gamma


def test_long_drifted_ladder_spectrum_matches_mpmath():
    """Birth 1, death 2, n = 200: dense eig gave lambda0 = 0.1278 and gamma
    = 0.  Reference: mpmath 1.3.0 eigsy of the symmetric form (diagonal
    -3 and -2 at the top, off-diagonal sqrt(2)) at 40 digits, rounded."""
    tr = qslab.solve_spectral(_drifted_ladder(200, 1.0, 2.0))
    lam0, gamma = 0.1719102026890193334030014, 0.001011977406836749424699908
    assert abs(tr.lambda0 - lam0) <= 1e-12 * lam0
    assert abs(tr.gamma - gamma) <= 1e-12 * gamma


# e^{gamma t} max_x sum_y |e^{t(L + lambda0)} - eta alpha|(x, y) on the default
# grid, from mpmath 1.3.0 at 60 digits: eigsy(S) = (w, Q), the sum over the
# modes other than the leading one of e^{t(w_j + lambda0)} Q_xj Q_yj, times
# sqrt(pi_y / pi_x) = 3^{(x - y)/2}
DRIFTED_PROFILE = (
    126505421753.35582412, 139810113063.37044485, 146259052975.80172225,
    156148652169.09054869, 171698563613.94981963, 197028698799.90195176,
    239612238424.48049896, 306549384131.98573445, 386565323704.70457786,
    448913149783.29878348, 478462940303.62915074, 486340267965.68521336,
    487344816543.0269078,
)


def test_drifted_ladder_certificate_matches_mpmath():
    """The profile from the eigenbasis keeps 1e-10 out to 6/gamma, where an
    expm of L + lambda0 is off by 3.5e-11 and the ratios reach 5e11."""
    chain = _drifted_ladder(60, 1.0, 3.0)
    tr = qslab.solve_spectral(chain)
    prof = certification_profile(chain, tr, np.ones(60), qslab.default_time_grid(tr.gamma))
    for (_, ratio), ref in zip(prof, DRIFTED_PROFILE, strict=True):
        assert abs(ratio - ref) <= 1e-10 * ref


@pytest.mark.parametrize("t", [0.0, 0.5, 40.0, 1e3])
def test_squarings_counts_the_squarings_that_run(bd5_bundle, t):
    """A plain exponential takes one Pade approximant (six products) and
    then exactly the squarings() count that its rounding floor is checked on."""
    A = bd5_bundle.chain.shifted[0]
    norm = np.abs(A).sum(axis=0).max()
    products = []

    def mul(*args, **kwargs):
        products.append(args[0].shape)
        return spectral._poly_mul(*args, **kwargs)

    (_, E), = spectral.exponentials(A[None], norm, [t], mul, spectral._poly_solve)
    assert len(products) == 6 + spectral.squarings(t, norm, 5)
    np.testing.assert_allclose(E[0], expm(t * A), rtol=0, atol=1e-12)


def test_no_module_binds_scipys_expm():
    """Every exponential comes from spectral.exponentials: no module of
    qslab imports an expm, or a star that would bind one, or reads an
    attribute named expm."""
    for path in sorted(Path(qslab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                assert not {a.name for a in node.names} & {"expm", "*"}, path.name
            assert not (isinstance(node, ast.Attribute) and node.attr == "expm"), path.name
