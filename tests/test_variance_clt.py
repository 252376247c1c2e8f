from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

import qslab
from qslab import spectral, variance_clt
from qslab.errors import NumericalError, ValidationError

import oracles
import paper_checks
from conftest import CYCLE_GENERATOR

F1 = np.array([1.0, -1.0])


def test_make_observable_centers_under_beta(m2asym_qproc, m2sym_qproc, bd5_qproc):
    obs = qslab.make_observable(m2asym_qproc, F1)
    assert abs(m2asym_qproc.beta @ obs.f_centered) < 1e-14
    assert abs(obs.beta_f - (m2asym_qproc.beta @ F1)) < 1e-15
    with pytest.raises(ValidationError):
        qslab.make_observable(m2asym_qproc, [2.0, 0.0])
    with pytest.raises(ValidationError):
        qslab.make_observable(m2asym_qproc, [1.0, 0.0, 0.0])
    for bad in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValidationError):
            qslab.make_observable(m2asym_qproc, bad)
    assert qslab.make_observable(m2asym_qproc, obs) is obs
    # an observable centred under another beta is centred again, or refused
    again = qslab.make_observable(m2sym_qproc, obs)
    assert again.beta_f == m2sym_qproc.beta @ F1 != obs.beta_f
    with pytest.raises(ValidationError):
        qslab.make_observable(bd5_qproc, obs)
    # bd5's beta(0.5) misses 0.5 by one rounding: a constant f centres to +0.0
    const = qslab.make_observable(bd5_qproc, np.full(5, 0.5))
    assert const.beta_f != 0.5
    assert not const.f_centered.any() and not np.signbit(const.f_centered).any()


def test_sigma2_m2sym_closed_form(m2sym_qproc):
    """L_Q g = -f with g = f/2, so sigma^2 = 2 beta(f g) = 1 exactly."""
    assert abs(qslab.sigma2_poisson(m2sym_qproc, F1) - 1.0) < 1e-12


def test_sigma2_constant_observable_vanishes(bd5_qproc):
    assert qslab.sigma2_poisson(bd5_qproc, np.full(5, 0.7)) == 0.0


def test_quadrature_agrees_within_recorded_bound(m2sym_qproc, bd5_qproc):
    for qp, f in ((m2sym_qproc, F1), (bd5_qproc, np.eye(5)[0])):
        sigma2 = qslab.sigma2_poisson(qp, f)
        quadrature, _, error_bound = qslab.sigma2_quadrature(qp, f)
        assert abs(sigma2 - quadrature) <= error_bound
        assert error_bound < 1e-6


def test_quadrature_cross_oracle_on_random_chains(random_chain_set):
    for chain in random_chain_set[:3]:
        tr = qslab.solve_spectral(chain)
        qp = qslab.h_transform(chain, tr)
        f = np.zeros(chain.n)
        f[0], f[-1] = 1.0, -1.0
        sigma2 = qslab.sigma2_poisson(qp, f)
        quadrature, _, error_bound = qslab.sigma2_quadrature(qp, f)
        assert abs(sigma2 - quadrature) <= error_bound
        assert error_bound <= 1e-8  # unit-gap chains keep the tail tiny


def _unit_ladder(n):
    return qslab.build_birth_death(n, [1.0] * (n - 1) + [0.0], [1.0] * n)


def _unit_ladder_qproc(n):
    chain = _unit_ladder(n)
    return qslab.h_transform(chain, qslab.solve_spectral(chain))


def test_quadrature_bound_meets_tolerance_on_seeded_ladder():
    """A 50-state unit ladder (gamma ~ 7.7e-3) with a seeded observable: the
    recorded bound stays inside the 1e-8 cross-oracle tolerance."""
    rng = np.random.default_rng([101, 2])
    # draws made before f: a 200-state ladder's mu and f, this ladder's mu
    rng.uniform(0.5, 1.5, 200), rng.uniform(-1, 1, 200), rng.uniform(0.5, 1.5, 50)
    f = rng.uniform(-1, 1, 50)
    qp = _unit_ladder_qproc(50)
    quadrature, _, error_bound = qslab.sigma2_quadrature(qp, f)
    assert abs(qslab.sigma2_poisson(qp, f) - quadrature) <= error_bound <= 1e-8


@pytest.mark.parametrize("n", [35, 50, 100, 200])
def test_quadrature_cross_oracle_on_unit_ladders(n):
    """Small-gap ladders (gamma ~ 20/n^2): one exponential spans 40/gamma."""
    f = np.random.default_rng([n, 7]).uniform(-1, 1, n)
    qp = _unit_ladder_qproc(n)
    quadrature, _, error_bound = qslab.sigma2_quadrature(qp, f)
    assert abs(qslab.sigma2_poisson(qp, f) - quadrature) <= error_bound


def test_constants_unit_inputs_power_of_two():
    cert = SimpleNamespace(C=1.0, gamma=1.0)
    qp = SimpleNamespace(c=1.0, beta=np.array([1.0]), psi=np.array([1.0]))
    C1, D, Ck = paper_checks.constants(cert, qp, K=8)
    np.testing.assert_array_equal(D, [2.0 ** k for k in range(8)])
    # C1 = 2; the first few C_k by hand
    assert C1 == 2.0
    np.testing.assert_allclose(Ck[:4], [2.0, 4.0, 3.0, 4.0 / 3.0], rtol=0, atol=1e-15)


def test_constants_identity_against_independent_fractions():
    cert = SimpleNamespace(C=1.25, gamma=0.75)
    qp = SimpleNamespace(c=0.5, beta=np.array([0.5, 0.5]), psi=np.array([2.0, 3.0]))
    _, D, Ck = paper_checks.constants(cert, qp, K=8)
    g = Fraction(3, 4)
    C1 = 1 / g + 1 / g ** 2
    C, c, bp = Fraction(5, 4), Fraction(1, 2), Fraction(5, 2)
    D1 = max(C * C / c, C * bp / (c * c * g))
    r = (C / g) * (1 + bp / c)
    # the recursions D_k = max(r D_{k-1}, D_1) and C_k = C_{k-1}/(k-1) + C_1/(k-1)!
    D_rec, C_rec = [D1], [C1]
    for k in range(2, 9):
        D_rec.append(max(D_rec[-1] * r, D1))
        C_rec.append(C_rec[-1] / (k - 1) + C1 / factorial(k - 1))
    for k in range(1, 9):
        # closed form, recursion, and factorial identity all coincide, exactly
        assert C_rec[k - 1] == C1 * k / factorial(k - 1)
        assert Ck[k - 1] == float(C_rec[k - 1])
        assert D_rec[k - 1] == max(r ** (k - 1), Fraction(1)) * D1
        assert D[k - 1] == float(D_rec[k - 1])


def test_constants_m2sym_certified_values(m2sym_bundle, m2sym_triple, m2sym_qproc):
    cert = qslab.certify_ergodicity(
        m2sym_bundle.chain, m2sym_triple, np.ones(2), qslab.default_time_grid(2.0)
    )
    C1, D, Ck = paper_checks.constants(cert, paper_checks.q_weights(m2sym_qproc))
    # C = 2, gamma = 2, c = 1, beta(psi) = 1
    assert abs(C1 - 0.75) < 1e-12
    np.testing.assert_allclose(D[:3], [4.0, 8.0, 16.0], rtol=0, atol=1e-10)
    np.testing.assert_allclose(Ck[:4], [0.75, 1.5, 1.125, 0.5], rtol=0, atol=1e-12)
    # bound plumbing: (2k)! D_k C1 k/(k-1)! mu(psi)/t at k=1, t=10, mu(psi) = 1
    bound = paper_checks.even_moment_bounds(cert, m2sym_qproc, m2sym_qproc.beta, 1, [10.0])
    assert abs(bound[0] - 0.6) < 1e-12


def test_moments_k0_is_survival(bd5_bundle):
    mu = np.full(5, 0.2)
    t = 3.0
    mv = qslab.exact_conditional_moments(bd5_bundle.chain, mu, np.eye(5)[0], 0, t)
    direct = float((mu @ expm(t * bd5_bundle.chain.sub_generator)).sum())
    assert abs(mv.survival - direct) < 1e-13
    assert mv.m[0] == mv.survival
    assert mv.conditional[0] == 1.0


def test_moments_constant_observable_power_law(m2asym_bundle):
    """f = 0.7 gives int f = 0.7 t on survivors, so m_k = (0.7 t)^k m_0."""
    mu = np.array([1.0, 0.0])
    f = np.full(2, 0.7)
    mv = qslab.exact_conditional_moments(m2asym_bundle.chain, mu, f, 5, 2.5)
    for k in range(6):
        expect = (0.7 * 2.5) ** k * mv.survival
        assert abs(mv.m[k] - expect) < 1e-12 * max(1.0, expect)


def test_moments_m2sym_q_process_variance_closed_form(m2sym_qproc):
    """Stationary Q-side second moment: m_2(t) = t - (1 - e^{-2t})/2."""
    beta = m2sym_qproc.beta
    for t in (1.0, 10.0):
        mv = qslab.exact_conditional_moments(m2sym_qproc, beta, F1, 2, t)
        assert abs(mv.survival - 1.0) < 1e-12  # conservative generator
        expect = t - (1.0 - np.exp(-2.0 * t)) / 2.0
        assert abs(mv.m[2] - expect) < 1e-10
        assert abs(mv.m[1]) < 1e-12  # symmetric start: odd moments vanish


def test_moments_guardrails(m2sym_bundle):
    mu = np.array([0.5, 0.5])
    with pytest.raises(ValidationError):
        qslab.exact_conditional_moments(m2sym_bundle.chain, mu, F1, 9, 1.0)
    with pytest.raises(ValidationError):
        qslab.exact_conditional_moments(m2sym_bundle.chain, mu, F1, -1, 1.0)
    with pytest.raises(NumericalError):
        qslab.exact_conditional_moments(m2sym_bundle.chain, mu, F1, 8, 1e40)
    with pytest.raises(NumericalError):
        # survival mass underflows long before t = 800
        qslab.exact_conditional_moments(m2sym_bundle.chain, mu, F1, 0, 800.0)


def test_moments_survive_fast_uniform_killing():
    """Killing 20 at both states: the survival mass e^{-800} underflows at
    t = 40, yet the conditional moments are those of the unkilled swap chain,
    which is the Q-process of the killed one."""
    killed = qslab.validate_chain([[-21.0, 1.0], [1.0, -21.0]])
    swap = qslab.h_transform(killed, qslab.solve_spectral(killed))
    np.testing.assert_allclose(swap.q_generator, [[-1.0, 1.0], [1.0, -1.0]], rtol=0, atol=1e-12)
    mu, t = np.array([0.7, 0.3]), 40.0
    got = qslab.exact_conditional_moments(killed, mu, F1, 4, t)
    want = qslab.exact_conditional_moments(swap, mu, F1, 4, t)
    assert abs(want.survival - 1.0) < 1e-12
    assert got.survival == 0.0
    np.testing.assert_allclose(got.conditional, want.m, rtol=1e-12, atol=1e-12)


def test_moments_refuse_times_past_the_rounding_floor(m2sym_qproc):
    """Each squaring can double the rounding error, so a t needing s
    squarings with 2^s n eps > 1e-6 is refused: on m2sym (rate 3, n = 2)
    that is t > 2^31 theta13 / 3, about 3.8e9.  At t = 1e12 the squarings
    would give survival 1.0000534, where the exact value is 1."""
    mu, f = m2sym_qproc.beta, np.array([1.0, -1.0])
    ok = qslab.exact_conditional_moments(m2sym_qproc, mu, f, 0, 3.5e9)
    assert abs(ok.survival - 1.0) <= 1e-6
    for t in (4e9, 1e12, 1e14, 1e300):
        with pytest.raises(NumericalError) as exc:
            qslab.exact_conditional_moments(m2sym_qproc, mu, f, 0, t)
        assert exc.value.code == "overflow-guard"
    # a 150-state unit ladder at 10/gamma squares well inside the floor
    qp = _unit_ladder_qproc(150)
    f150 = np.linspace(-1.0, 1.0, 150)
    mv = qslab.exact_conditional_moments(qp, qp.beta, f150 - qp.beta @ f150, 4,
                                         10.0 / qp.triple.gamma)
    assert np.all(np.isfinite(mv.m)) and abs(mv.survival - 1.0) < 1e-9


def test_moments_reject_negative_time(m2sym_bundle):
    chain, mu = m2sym_bundle.chain, m2sym_bundle.mu
    for t in (-1.0, np.inf, np.nan, [1.0, -1.0]):
        with pytest.raises(ValidationError):
            qslab.exact_conditional_moments(chain, mu, F1, 0, t)
    mv = qslab.exact_conditional_moments(chain, mu, F1, 2, 0.0)
    np.testing.assert_array_equal(mv.conditional, [1.0, 0.0, 0.0])


# a dyadic family (8, 16, 32, 64), two times outside it and t = 0, unsorted
# and repeated, all over gamma; 8/gamma has at least one squaring, as the
# shifted generator's 1-norm is at least its spectral radius, gamma
_GRID = (8.0, 16.0, 3.0, 64.0, 0.0, 16.0, 32.0, 0.7, 8.0)


def _grid_case(name, bundles):
    """(generator, mu, f, gamma) of an absorbed builtin, or of the 150-state
    unit ladder's Q-process from its quasi-ergodic law."""
    if name == "ladder150":
        qp = _unit_ladder_qproc(150)
        f = np.linspace(-1.0, 1.0, 150)
        return qp, qp.beta, f - qp.beta @ f, qp.triple.gamma
    b = bundles[name]
    return b.chain, b.mu, b.f, qslab.solve_spectral(b.chain).gamma


def _count_pade(monkeypatch):
    """Record the step h of each Pade approximant the moment oracle takes."""
    steps, pade = [], spectral._pade13

    def counted(X, h, mul, solve):
        steps.append(h)
        return pade(X, h, mul, solve)

    monkeypatch.setattr(spectral, "_pade13", counted)
    return steps


def _assert_grid_matches_single_calls(gen, mu, f, K, times):
    grid = qslab.exact_conditional_moments(gen, mu, f, K, times)
    assert [mv.t for mv in grid] == list(times)
    for mv in grid:
        one = qslab.exact_conditional_moments(gen, mu, f, K, mv.t)
        for field in ("m", "conditional"):
            assert getattr(mv, field).tobytes() == getattr(one, field).tobytes(), (K, mv.t)
        assert mv.survival == one.survival


@pytest.mark.parametrize("K", [0, 4])
@pytest.mark.parametrize("name", ["m2sym", "bd5", "m2asym", "ladder150"])
def test_grid_moments_match_single_time_calls_bit_for_bit(
        monkeypatch, m2sym_bundle, bd5_bundle, m2asym_bundle, name, K):
    """One call over a grid writes, in the grid's order, the bytes of one
    call per time, with one Pade approximant per dyadic family (here 8, 16,
    32 and 64 share one) and one for each other time."""
    gen, mu, f, gamma = _grid_case(
        name, {"m2sym": m2sym_bundle, "bd5": bd5_bundle, "m2asym": m2asym_bundle})
    times = [c / gamma for c in _GRID]
    steps = _count_pade(monkeypatch)
    qslab.exact_conditional_moments(gen, mu, f, K, times)
    assert len(steps) == 4
    _assert_grid_matches_single_calls(gen, mu, f, K, times)


def test_grid_moments_fall_back_when_doubling_misses_a_squaring(monkeypatch, bd5_bundle):
    """A squaring count that breaks s(2t) = s(t) + 1 past 12/gamma changes
    the step h of 16, 32 and 64: they form a family of their own and take a
    second approximant, and every time still has the bytes of its own call."""
    chain, mu, f = bd5_bundle.chain, bd5_bundle.mu, bd5_bundle.f
    gamma = qslab.solve_spectral(chain).gamma
    times = [c / gamma for c in _GRID]
    squarings = spectral.squarings
    monkeypatch.setattr(spectral, "squarings",
                        lambda t, norm, n: squarings(t, norm, n) + (t > 12.0 / gamma))
    steps = _count_pade(monkeypatch)
    qslab.exact_conditional_moments(chain, mu, f, 4, times)
    assert len(steps) == 5
    _assert_grid_matches_single_calls(chain, mu, f, 4, times)


def _pade_route(gen, mu, f, K, t):
    """m_k(t) = k! mu E_k 1 from the ring in the generator's own basis,
    the route of every generator without a usable symmetric basis."""
    L, shift = gen.shifted
    X = np.zeros((K + 1, len(f), len(f)))
    X[0], X[1] = L, np.diag(f)
    norm = float((np.abs(L).sum(axis=0) + np.abs(f)).max())
    (_, E), = spectral.exponentials(X, norm, [t], spectral._poly_mul, spectral._poly_solve)
    return np.array([factorial(k) for k in range(K + 1)]) * (E.sum(axis=2) @ mu) * np.exp(shift * t)


def _drifted_ladder(n):
    """Birth 1, death 3: reversible, with pi spanning 0.48 n decades."""
    return qslab.build_birth_death(n, [1.0] * (n - 1) + [0.0], [3.0] * n)


def _random_law_and_observable(n):
    rng = np.random.default_rng([n, 22])
    mu = rng.uniform(0.5, 1.5, n)
    return mu / mu.sum(), rng.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("c", [5.0, 10.0])
@pytest.mark.parametrize("name", ["ladder150", "m2sym", "bd5", "m2asym"])
def test_basis_route_matches_the_original_basis(m2sym_bundle, bd5_bundle, m2asym_bundle,
                                                name, c):
    """A reversible generator whose basis passes the rounding test takes
    the oracle's symmetric-basis route; at 5 and 10 / gamma its moments of
    every order agree with the ring in the original basis to 1e-10 relative
    (from a random law and observable, so that no moment vanishes)."""
    if name == "ladder150":
        gen = _unit_ladder_qproc(150)
        gamma = gen.triple.gamma
    else:
        gen = {"m2sym": m2sym_bundle, "bd5": bd5_bundle, "m2asym": m2asym_bundle}[name].chain
        gamma = qslab.solve_spectral(gen).gamma
    assert spectral.exponential_basis(gen) is not None
    mu, f = _random_law_and_observable(gen.n)
    mv = qslab.exact_conditional_moments(gen, mu, f, 4, c / gamma)
    np.testing.assert_allclose(mv.m, _pade_route(gen, mu, f, 4, c / gamma), rtol=1e-10, atol=0)


def test_basis_route_keeps_the_q_process_survival_at_one():
    """The leading mode of L_Q is 0 exactly in the basis, so the ladder's
    Q-process keeps survival 1 to 1e-14 (the original basis loses 1.4e-12
    at 10 / gamma)."""
    qp = _unit_ladder_qproc(150)
    f = np.linspace(-1.0, 1.0, 150)
    gamma = qp.triple.gamma
    for mv in qslab.exact_conditional_moments(qp, qp.beta, f - qp.beta @ f, 4,
                                              [5.0 / gamma, 10.0 / gamma]):
        assert abs(mv.survival - 1.0) <= 1e-14
        assert mv.m[0] == mv.survival


def test_basis_route_squarings_meet_no_subnormal_entries():
    """The ladder's fastest modes decay through the subnormal doubles in
    the squarings between 0.15 and 2.5 / gamma; flushed, they leave no
    subnormal entry, which would slow each BLAS product about thirtyfold."""
    qp = _unit_ladder_qproc(150)
    f = np.linspace(-1.0, 1.0, 150)
    times = [10.0 / qp.triple.gamma / 2 ** j for j in range(10)]  # one dyadic family
    w, U, _ = spectral.exponential_basis(qp)
    X = np.zeros((5, 150, 150))
    X[0], X[1] = np.diag(w - w[-1]), (U.T * f) @ U
    norm = float((np.abs(qp.q_generator).sum(axis=0) + np.abs(f)).max())
    for _, E in spectral.exponentials(X, norm, times, spectral._sym_mul, spectral._sym_solve):
        assert np.all((E == 0) | (np.abs(E) >= np.finfo(float).tiny))


@pytest.mark.parametrize("name", ["drifted60", "cycle"])
def test_generators_without_a_usable_basis_keep_the_original_ring(name):
    """The 60-state drifted ladder is reversible, but its sqrt(pi) spans 14
    decades, past the rounding test; the 3-cycle is not reversible.  Both
    keep the ring in the original basis, bit for bit."""
    chain = _drifted_ladder(60) if name == "drifted60" else qslab.validate_chain(CYCLE_GENERATOR)
    assert spectral.exponential_basis(chain) is None
    mu, f = _random_law_and_observable(chain.n)
    t = 5.0 / qslab.solve_spectral(chain).gamma
    mv = qslab.exact_conditional_moments(chain, mu, f, 4, t)
    assert mv.m.tobytes() == _pade_route(chain, mu, f, 4, t).tobytes()


@pytest.mark.parametrize("K", [1, 4, 8])
@pytest.mark.parametrize("name", ["cycle", "ladder150"])
def test_pade_skips_only_products_with_a_zero_block(name, K):
    """The Pade products skip each pair of blocks past their operands' top
    degrees (X: 1, X^2: 2, X^4: 4, X^6: 6); the approximant keeps every bit
    of the one that forms all pairs, in the original ring (the 3-cycle) and
    in the symmetric basis (the ladder's Q-process)."""
    if name == "cycle":
        L, f = qslab.validate_chain(CYCLE_GENERATOR).sub_generator, np.linspace(-1.0, 1.0, 3)
        X0, X1 = L, np.diag(f)
        mul, solve = spectral._poly_mul, spectral._poly_solve
    else:
        (w, U, _), f = spectral.exponential_basis(_unit_ladder_qproc(150)), np.linspace(-1, 1, 150)
        X0, X1 = np.diag(w - w[-1]), (U.T * f) @ U
        mul, solve = spectral._sym_mul, spectral._sym_solve
    X = np.zeros((K + 1, len(f), len(f)))
    X[0], X[1] = X0, X1
    full = spectral._pade13(X, 0.3, lambda A, B, *_, out: mul(A, B, out=out), solve)
    assert spectral._pade13(X, 0.3, mul, solve).tobytes() == full.tobytes()


def _augmented_generator(L, f, K):
    """The dense moment formula's generator, as exact Fractions: diagonal
    blocks L and superdiagonal blocks k diag(f), k = K, ..., 1.  Block K - k
    of its exponential's last block column, summed over columns and weighted
    by mu, is m_k (_block_moments)."""
    n = len(f)
    A = np.full(((K + 1) * n, (K + 1) * n), Fraction(0), dtype=object)
    for j in range(K + 1):
        for a in range(n):
            for b in range(n):
                A[j * n + a, j * n + b] = Fraction(L[a, b])
            if j < K:
                A[j * n + a, (j + 1) * n + a] = (K - j) * Fraction(f[a])
    return A


def _block_moments(E, mu, K):
    """m_k = mu (block K - k of E's last block column) 1."""
    n = len(mu)
    w = E[:, K * n:].sum(axis=1)
    return np.array([mu @ w[(K - k) * n:(K - k + 1) * n] for k in range(K + 1)])


_BITS = 200  # fractional bits (60 digits) of the fixed-point reference


def _fixed_expm(B):
    """e^B for a matrix of Python ints holding B * 2^_BITS: Taylor to degree
    24 of B / 2^j with ||B / 2^j||_inf <= 1/16 (remainder below 1e-55),
    then j squarings."""
    n = B.shape[0]
    j = max(0, max(sum(abs(v) for v in row) for row in B).bit_length() - _BITS + 4)
    X = B >> j
    one = np.zeros((n, n), dtype=object)
    np.fill_diagonal(one, 1 << _BITS)
    E = one
    for k in range(24, 0, -1):
        E = one + ((X @ E) >> _BITS) // k
    for _ in range(j):
        E = (E @ E) >> _BITS
    return E


def _reference_moments(L, f, mu, K, t):
    """m_k from the fixed-point exponential of t times the augmented
    generator, summed exactly against mu."""
    B = _augmented_generator(L, f, K) * Fraction(t)
    E = _fixed_expm(np.array([[round(v * 2 ** _BITS) for v in row] for row in B], dtype=object))
    exact = _block_moments(E, np.array([Fraction(m) for m in mu], dtype=object), K)
    return np.array([float(v / 2 ** _BITS) for v in exact])


def test_fixed_point_reference_matches_mpmath(m2asym_qproc):
    """The fixed-point exponential agrees with mpmath's 50-digit expm on
    m2asym's K = 4 augmented generator."""
    f = np.array([0.3, -0.9])
    A = _augmented_generator(m2asym_qproc.q_generator, f, 4) * Fraction(7, 2)
    got = _fixed_expm(np.array([[round(v * 2 ** _BITS) for v in row] for row in A], dtype=object))
    with mpmath.workdps(50):
        want = mpmath.expm(mpmath.matrix([[mpmath.mpf(v.numerator) / v.denominator for v in row]
                                          for row in A]))
        for a in range(A.shape[0]):
            for b in range(A.shape[1]):
                assert abs(mpmath.mpf(int(got[a, b])) / 2 ** _BITS - want[a, b]) < 1e-45


@pytest.mark.parametrize("model, absorbed, K, times", [
    ("bd5", False, 4, (1, 10, 100)), ("ladder8", False, 4, (1, 10, 100)),
    ("ladder8", True, 4, (1, 10, 100)), ("bd5", False, 8, (100,)),
], ids=["bd5-q", "ladder8-q", "ladder8-chain", "bd5-q-k8"])
def test_moments_match_a_fixed_point_reference(bd5_bundle, model, absorbed, K, times):
    """Moments at t = 1, 10, 100 / gamma agree with a 60-digit exponential of
    the dense augmented generator to 1e-13 relative: the Q-process's m_k,
    and the absorbed chain's conditional moments from its shifted generator."""
    chain = bd5_bundle.chain if model == "bd5" else _unit_ladder(8)
    triple = qslab.solve_spectral(chain)
    gen = chain if absorbed else qslab.h_transform(chain, triple)
    L = chain.shifted[0] if absorbed else gen.q_generator
    rng = np.random.default_rng([chain.n, K, 11])
    mu = rng.uniform(0.5, 1.5, chain.n)
    mu /= mu.sum()
    f = rng.uniform(-1.0, 1.0, chain.n)
    for c in times:
        t = c / triple.gamma
        mv = qslab.exact_conditional_moments(gen, mu, f, K, t)
        want = _reference_moments(L, f, mu, K, t)
        got = mv.conditional if absorbed else mv.m
        if absorbed:
            want = want / want[0]
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, (model, absorbed, K, c)


def test_moments_match_the_dense_block_formula(random_chain_set):
    """One dense expm of the (K+1)n augmented generator gives the same
    conditional moments to 1e-10 relative on the 20 random chains."""
    for chain in random_chain_set:
        n = chain.n
        mu = np.full(n, 1.0 / n)
        f = np.linspace(-1.0, 1.0, n)
        L = chain.shifted[0]
        for K in (0, 4, 8):
            A = _augmented_generator(L, f, K).astype(float)
            for t in (0.5, 5.0):  # gamma = 1
                want = _block_moments(expm(t * A), mu, K)
                got = qslab.exact_conditional_moments(chain, mu, f, K, t).conditional
                np.testing.assert_allclose(got, want / want[0], rtol=1e-10, atol=0)


def test_taylor_moments_cross_check(m2sym_qproc, random_chain_set):
    """Numerical differentiation of the characteristic function recovers the
    augmented-generator moments far below the 1e-6 contract."""
    beta = m2sym_qproc.beta
    mv = qslab.exact_conditional_moments(m2sym_qproc, beta, F1, 4, 2.0)
    tm = oracles.charfun_taylor_moments(m2sym_qproc, beta, F1, 2.0, k_max=4)
    np.testing.assert_allclose(tm, mv.m[:5], rtol=0, atol=1e-6)

    chain = random_chain_set[0]
    n = chain.n
    mu = np.full(n, 1.0 / n)
    f = np.linspace(-1.0, 1.0, n)
    mv = qslab.exact_conditional_moments(chain, mu, f, 4, 2.0)
    tm = oracles.charfun_taylor_moments(chain, mu, f, 2.0, k_max=4)
    np.testing.assert_allclose(tm, mv.m[:5], rtol=0, atol=1e-6)


def test_even_moment_limit_m2sym_error_exact(m2sym_qproc):
    beta = m2sym_qproc.beta
    ts = np.array([10.0, 20.0, 40.0, 80.0])
    errs, rate = paper_checks.even_moment_errors(m2sym_qproc, beta, F1, 1, ts, sigma2=1.0)
    for t, err in zip(ts, errs):
        assert abs(err - (1.0 - np.exp(-2.0 * t)) / (2.0 * t)) < 1e-12
    assert abs(rate + 1.0) < 1e-6


def test_even_moment_limit_against_constants_bound(
    m2sym_bundle, m2sym_triple, m2sym_qproc
):
    cert = qslab.certify_ergodicity(
        m2sym_bundle.chain, m2sym_triple, np.ones(2), qslab.default_time_grid(2.0)
    )
    beta = m2sym_qproc.beta
    errs, _ = paper_checks.even_moment_errors(m2sym_qproc, beta, F1, 2, [10.0, 40.0], sigma2=1.0)
    assert np.all(errs <= paper_checks.even_moment_bounds(cert, m2sym_qproc, beta, 2, [10.0, 40.0]))


def test_odd_moments_vanish_from_symmetric_start(m2sym_qproc):
    errs, _ = paper_checks.odd_moment_decay(
        m2sym_qproc, m2sym_qproc.beta, F1, 1, [5.0, 10.0, 20.0]
    )
    assert np.all(errs < 1e-12)


def test_odd_moment_decay_rate_m2asym(m2asym_qproc):
    mu = np.array([1.0, 0.0])
    for k in (0, 1):
        _, rate = paper_checks.odd_moment_decay(
            m2asym_qproc, mu, F1, k, [20.0, 40.0, 80.0, 160.0]
        )
        assert -0.7 < rate < -0.3


def test_charfun_basics(m2sym_bundle, m2sym_qproc):
    mu = np.array([0.5, 0.5])
    assert abs(oracles.exact_conditional_charfun(m2sym_bundle.chain, mu, F1, 0.0, 3.0)
               - 1.0) < 1e-13
    # constant f factors out of the conditioning as a pure phase
    c = 0.3
    got = oracles.exact_conditional_charfun(m2sym_bundle.chain, mu, np.full(2, c), 0.5, 3.0)
    assert abs(got - np.exp(1j * 0.5 * c * 3.0)) < 1e-12
    for w in (0.5, 1.5):
        cf = oracles.exact_conditional_charfun(m2sym_bundle.chain, mu, F1, w, 2.0)
        assert abs(cf) <= 1.0 + 1e-12
    with pytest.raises(ValidationError):
        oracles.exact_conditional_charfun(m2sym_bundle.chain, mu, F1, 1.0, 0.0)


def test_charfun_survives_fast_uniform_killing():
    """Killing 20 at both states makes the survival mass e^{-20 t}, far below
    the smallest double at t = 50, yet uniform killing leaves the conditioned
    law that of the unkilled swap chain."""
    killed = qslab.validate_chain([[-21.0, 1.0], [1.0, -21.0]])
    swap = np.array([[-1.0, 1.0], [1.0, -1.0]])
    mu, t = np.array([0.7, 0.3]), 50.0
    for omega in (0.5, 1.0, 2.0):
        w = omega / np.sqrt(t)
        got = oracles.exact_conditional_charfun(killed, mu, F1, w, t)
        want = (expm(t * (swap.T + 1j * w * np.diag(F1))) @ mu).sum()
        assert abs(got - want) < 1e-12


def test_charfun_approaches_gaussian(m2sym_qproc):
    t = 50.0
    cf = oracles.exact_conditional_charfun(
        m2sym_qproc, m2sym_qproc.beta, F1, 1.0 / np.sqrt(t), t
    )
    assert abs(cf - np.exp(-0.5)) < 0.01


def test_sup_over_weight_ball_matches_thetasweep():
    rng = np.random.default_rng(3)
    for n in (2, 5, 9):
        psi = rng.uniform(1.0, 2.5, n)
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = paper_checks.sup_over_weight_ball(d, psi)
        thetas = np.linspace(0, np.pi, 200001)
        sweep = np.max(np.abs((np.exp(-1j * thetas)[:, None] * d).real) @ psi)
        assert abs(got - sweep) < 1e-6
        assert got >= sweep - 1e-12  # enumeration can only do better


def test_sup_over_weight_ball_real_case_is_weighted_norm():
    rng = np.random.default_rng(4)
    d = rng.normal(size=7)
    psi = rng.uniform(1.0, 2.0, 7)
    assert abs(paper_checks.sup_over_weight_ball(d.astype(complex), psi) - np.abs(d) @ psi) < 1e-12
    d20 = rng.normal(size=20)
    psi20 = np.ones(20)
    assert abs(
        paper_checks.sup_over_weight_ball(d20.astype(complex), psi20) - np.abs(d20) @ psi20
    ) < 1e-9


def _sup_by_enumeration(d, psi):
    """max |sum_x s psi d| over the 2^(n-1) sign vectors with s_0 = +1."""
    n = len(d)
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
    signs = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits])
    return float(np.abs((signs * psi) @ d).max())


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_sup_over_weight_ball_matches_enumeration(n):
    """The breakpoint walk is exact at every n: a phase sweep on 3600 angles
    comes out low by about 1e-7 relative at these sizes."""
    rng = np.random.default_rng([n, 11])
    for zero_re in (False, True):
        psi = rng.uniform(1.0, 3.0, n)
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        if zero_re:  # breakpoints at theta = 0, where ties go by Im d
            d.real[::4] = 0.0
        want = _sup_by_enumeration(d, psi)
        assert abs(paper_checks.sup_over_weight_ball(d, psi) - want) <= 1e-12 * want


def test_uniform_charfun_bound_m2sym(m2sym_bundle, m2sym_triple, m2sym_qproc):
    cert = qslab.certify_ergodicity(
        m2sym_bundle.chain, m2sym_triple, np.ones(2), qslab.default_time_grid(2.0)
    )
    mu = np.array([1.0, 0.0])
    sigma2 = qslab.sigma2_poisson(m2sym_qproc, F1)
    ts = [10.0, 40.0, 160.0]
    rows = zip(ts, *paper_checks.charfun_bound(m2sym_qproc, cert, mu, F1, 1.0, ts, sigma2))
    psi = paper_checks.q_weights(m2sym_qproc).psi
    mu_psi = float(mu @ psi)
    beta_psi = float(m2sym_qproc.beta @ psi)
    convs = []
    for t, sup_gap, bound, conv in rows:
        expect = cert.C * mu_psi * np.exp(-cert.gamma * t) + (
            cert.C * 1.0 / np.sqrt(t)
        ) * (beta_psi + cert.C * mu_psi) / cert.gamma
        assert abs(bound - expect) < 1e-12
        assert sup_gap <= bound
        convs.append(conv)
    assert convs[0] > convs[1] > convs[2]  # Gaussian limit sharpens with t
