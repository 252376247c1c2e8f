import numpy as np
import pytest
import yaml
from scipy.linalg import expm

import qslab
from qslab import chain_model
from qslab.chain_model import BUILTIN_MODELS
from qslab.errors import ValidationError

from conftest import make_random_chain


def test_validate_accepts_and_extracts_killing():
    chain = qslab.validate_chain([[-2.0, 1.0], [1.0, -2.0]])
    assert chain.n == 2
    np.testing.assert_allclose(chain.killing, [1.0, 1.0], rtol=0, atol=1e-14)
    assert chain.states == ("1", "2")


def test_validate_rejects_conservative():
    with pytest.raises(ValidationError) as exc:
        qslab.validate_chain([[-1.0, 1.0], [1.0, -1.0]])
    assert exc.value.code == "no-killing"
    assert exc.value.exit_code == 3


def test_validate_rejects_negative_offdiagonal():
    with pytest.raises(ValidationError) as exc:
        qslab.validate_chain([[-2.0, -0.5], [1.0, -2.0]])
    assert exc.value.code == "negative-off-diagonal"


def test_validate_rejects_positive_row_sum():
    with pytest.raises(ValidationError) as exc:
        qslab.validate_chain([[-1.0, 2.0], [1.0, -2.0]])
    assert exc.value.code == "positive-row-sum"


def test_validate_rejects_reducible():
    # state 0 never reaches state 1
    with pytest.raises(ValidationError) as exc:
        qslab.validate_chain([[-2.0, 0.0], [1.0, -2.0]])
    assert exc.value.code == "reducible"


def test_validate_rejects_nonsquare_nonfinite_ragged():
    with pytest.raises(ValidationError):
        qslab.validate_chain([[-2.0, 1.0]])
    with pytest.raises(ValidationError):
        qslab.validate_chain([[-np.inf, 1.0], [1.0, -2.0]])
    with pytest.raises(ValidationError):
        qslab.validate_chain([[-2.0, 1.0], [1.0]])


def test_initial_law_validation():
    mu = qslab.validate_initial_law([0.25, 0.75], 2)
    np.testing.assert_allclose(mu.sum(), 1.0, rtol=0, atol=1e-14)
    with pytest.raises(ValidationError):
        qslab.validate_initial_law([0.5, 0.6], 2)
    with pytest.raises(ValidationError):
        qslab.validate_initial_law([-0.1, 1.1], 2)
    with pytest.raises(ValidationError):
        qslab.validate_initial_law([1.0], 2)


def test_weight_function_floor():
    psi1 = qslab.validate_weight(np.array([1.0, 4.0]))
    np.testing.assert_allclose(psi1, [1.0, 4.0], rtol=0, atol=0)
    with pytest.raises(ValidationError):
        qslab.validate_weight(np.array([0.5, 4.0]))


def test_birth_death_builder_small_cases():
    c1 = qslab.build_birth_death(1, [0.0], [1.0])
    np.testing.assert_allclose(c1.sub_generator, [[-1.0]], rtol=0, atol=0)

    c2 = qslab.build_birth_death(2, [1.0, 0.0], [1.0, 1.0])
    expected = np.array([[-2.0, 1.0], [1.0, -1.0]])
    np.testing.assert_allclose(c2.sub_generator, expected, rtol=0, atol=0)
    np.testing.assert_allclose(c2.killing, [1.0, 0.0], rtol=0, atol=0)


def test_birth_death_builder_matches_hand_tridiagonal():
    # 5-state unit-rate ladder written out explicitly
    chain = qslab.build_birth_death(5, [1.0, 1.0, 1.0, 1.0, 0.0], [1.0] * 5)
    expected = np.array(
        [
            [-2.0, 1.0, 0.0, 0.0, 0.0],
            [1.0, -2.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, -2.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, -2.0, 1.0],
            [0.0, 0.0, 0.0, 1.0, -1.0],
        ]
    )
    np.testing.assert_allclose(chain.sub_generator, expected, rtol=0, atol=0)


def test_birth_death_builder_rejects_bad_rates():
    with pytest.raises(ValidationError):
        qslab.build_birth_death(2, [1.0, 0.0], [0.0, 1.0])  # no absorption route
    with pytest.raises(ValidationError):
        qslab.build_birth_death(2, [1.0, 0.5], [1.0, 1.0])  # top birth must vanish
    with pytest.raises(ValidationError):
        qslab.build_birth_death(3, [1.0, 0.0, 0.0], [1.0, 0.0, 1.0])  # interior cut
    with pytest.raises(ValidationError):
        qslab.build_birth_death(2, [-1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValidationError):
        qslab.build_birth_death(2, [1.0], [1.0, 1.0])


def test_birth_death_needs_one_state():
    with pytest.raises(ValidationError) as exc:
        qslab.build_birth_death(0, [], [])
    assert exc.value.code == "invalid-rates"


def test_fixture_semigroup_substochastic(m2sym_bundle, m2asym_bundle, bd5_bundle):
    """exp(tL) must stay entrywise nonnegative with row sums in (0, 1]."""
    for bundle in (m2sym_bundle, m2asym_bundle, bd5_bundle):
        L = bundle.chain.sub_generator
        for t in (0.1, 1.0, 10.0):
            P = expm(t * L)
            assert P.min() >= -1e-12
            rows = P.sum(axis=1)
            assert rows.max() <= 1.0 + 1e-10
            assert rows.min() > 0.0


def test_random_chain_semigroup_substochastic(random_chain_set):
    for chain in random_chain_set[:5]:
        P = expm(2.0 * chain.sub_generator)
        assert P.min() >= -1e-12
        assert P.sum(axis=1).max() <= 1.0 + 1e-10


def test_bd5_fixture_is_unit_rate_ladder(bd5_bundle):
    chain = qslab.build_birth_death(5, [1.0] * 4 + [0.0], [1.0] * 5)
    np.testing.assert_allclose(
        bd5_bundle.chain.sub_generator, chain.sub_generator, rtol=0, atol=0
    )


def test_yaml_roundtrip(tmp_path, bd5_bundle):
    path = tmp_path / "model.yaml"
    qslab.emit_model_config(bd5_bundle, path)
    loaded = qslab.load_model_config(path)
    np.testing.assert_allclose(
        loaded.chain.sub_generator, bd5_bundle.chain.sub_generator, rtol=0, atol=0
    )
    np.testing.assert_allclose(loaded.psi1, bd5_bundle.psi1, rtol=0, atol=0)
    np.testing.assert_allclose(loaded.mu, bd5_bundle.mu, rtol=0, atol=0)
    np.testing.assert_allclose(loaded.f, bd5_bundle.f, rtol=0, atol=0)
    assert loaded.name == bd5_bundle.name


def test_yaml_generator_block(tmp_path):
    path = tmp_path / "gen.yaml"
    path.write_text(
        "name: tiny\n"
        "generator:\n"
        "  - [-2.0, 1.0]\n"
        "  - [1.0, -2.0]\n"
        "mu: [1.0, 0.0]\n"
        "observable: [1.0, -1.0]\n"
    )
    bundle = qslab.load_model_config(path)
    np.testing.assert_allclose(
        bundle.chain.sub_generator, [[-2.0, 1.0], [1.0, -2.0]], rtol=0, atol=0
    )
    np.testing.assert_allclose(bundle.mu, [1.0, 0.0], rtol=0, atol=0)
    # defaults: unit weight
    np.testing.assert_allclose(bundle.psi1, [1.0, 1.0], rtol=0, atol=0)
    assert bundle.name == "tiny"


def test_yaml_birth_death_block_matches_builder(tmp_path):
    path = tmp_path / "bd.yaml"
    path.write_text(
        "birth_death:\n"
        "  n: 3\n"
        "  birth: [2.0, 1.0, 0.0]\n"
        "  death: [1.0, 1.0, 3.0]\n"
    )
    bundle = qslab.load_model_config(path)
    direct = qslab.build_birth_death(3, [2.0, 1.0, 0.0], [1.0, 1.0, 3.0])
    np.testing.assert_array_equal(bundle.chain.sub_generator, direct.sub_generator)


def test_yaml_rejects_malformed(tmp_path):
    cases = {
        "both.yaml": (
            "generator: [[-1.0]]\n"
            "birth_death:\n  n: 1\n  birth: [0.0]\n  death: [1.0]\n"
        ),
        "neither.yaml": "name: empty\n",
        "unknown.yaml": "generator: [[-1.0]]\nfrobnicate: 3\n",
        "ragged.yaml": "generator:\n  - [-2.0, 1.0]\n  - [1.0]\n",
        "notyaml.yaml": "generator: [[-1.0]\n",
        "scalar.yaml": "3\n",
    }
    for fname, text in cases.items():
        path = tmp_path / fname
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            qslab.load_model_config(path)
        assert exc.value.exit_code == 3, fname


def _assert_same_bundle(a, b):
    for x, y in ((a.chain.sub_generator, b.chain.sub_generator),
                 (a.chain.killing, b.chain.killing), (a.psi1, b.psi1),
                 (a.mu, b.mu), (a.f, b.f)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert (a.chain.states, a.name) == (b.chain.states, b.name)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_c_and_python_yaml_loaders_give_equal_bundles(tmp_path, monkeypatch):
    chain = make_random_chain(np.random.default_rng(7), n=40)
    rng = np.random.default_rng(8)
    mu = rng.uniform(0.5, 1.5, 40)
    dense = chain_model.ModelBundle(chain=chain, psi1=np.ones(40), mu=mu / mu.sum(),
                                    f=rng.uniform(-1.0, 1.0, 40), name="dense40")
    qslab.emit_model_config(dense, tmp_path / "dense.yaml")
    (tmp_path / "bd.yaml").write_text(
        "name: ladder\n"
        "birth_death:\n"
        "  n: 4\n"
        "  birth: [2.5, 1.0e-3, 0.125, 0.0]\n"
        "  death: [1.0, 1.0, 3.0, 0.75]\n"
        "mu: [0.25, 0.25, 0.25, 0.25]\n")
    for name in ("dense.yaml", "bd.yaml"):
        monkeypatch.setattr(chain_model, "_YAML_LOADER", yaml.CSafeLoader)
        fast = qslab.load_model_config(tmp_path / name)
        monkeypatch.setattr(chain_model, "_YAML_LOADER", yaml.SafeLoader)
        _assert_same_bundle(fast, qslab.load_model_config(tmp_path / name))
    _assert_same_bundle(fast, qslab.load_model_config(tmp_path / "bd.yaml"))


@pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
def test_malformed_yaml_is_a_parse_error_under_either_loader(tmp_path, monkeypatch, loader):
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML built without libyaml")
    monkeypatch.setattr(chain_model, "_YAML_LOADER", getattr(yaml, loader))
    for i, text in enumerate(("generator: [[-1.0]\n", "generator: {a: [1\n", "\tgenerator: 1\n")):
        path = tmp_path / f"bad{i}.yaml"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            qslab.load_model_config(path)
        assert exc.value.code == "parse-error"


def test_yaml_rejects_bad_sections(tmp_path):
    path = tmp_path / "badmu.yaml"
    path.write_text("generator: [[-1.0, 0.5], [0.5, -1.0]]\nmu: [0.9, 0.9]\n")
    with pytest.raises(ValidationError):
        qslab.load_model_config(path)

    path2 = tmp_path / "badf.yaml"
    path2.write_text("generator: [[-1.0, 0.5], [0.5, -1.0]]\nobservable: [2.0, 0.0]\n")
    with pytest.raises(ValidationError):
        qslab.load_model_config(path2)

    path3 = tmp_path / "badpsi.yaml"
    path3.write_text("generator: [[-1.0, 0.5], [0.5, -1.0]]\npsi1: [0.2, 1.0]\n")
    with pytest.raises(ValidationError):
        qslab.load_model_config(path3)


def test_resolve_model_builtin_and_unknown():
    for name in BUILTIN_MODELS:
        bundle = qslab.resolve_model(name)
        assert bundle.name == name
        assert abs(bundle.f).max() <= 1.0 + 1e-12
        np.testing.assert_allclose(bundle.mu.sum(), 1.0, rtol=0, atol=1e-12)
    with pytest.raises(ValidationError):
        qslab.resolve_model("no-such-model")


def test_every_birth_death_and_two_state_chain_is_reversible():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        birth = np.append(10.0 ** rng.uniform(-3, 3, n - 1), 0.0)
        chain = qslab.build_birth_death(n, birth, 10.0 ** rng.uniform(-3, 3, n))
        assert chain.reversible
    for _ in range(40):
        off = 10.0 ** rng.uniform(-3, 3, 2)
        kill = 10.0 ** rng.uniform(-3, 3, 2) * rng.integers(0, 2, 2)
        kill[rng.integers(0, 2)] += 0.5
        L = np.array([[-off[0] - kill[0], off[0]], [off[1], -off[1] - kill[1]]])
        assert qslab.validate_chain(L).reversible


def test_reversible_chain_off_a_tree_is_detected():
    """A walk on a dense graph with detailed balance built in, each rate
    carrying the rounding of K(x, y) / pi_x: reversible."""
    rng = np.random.default_rng(3)
    n = 12
    K = rng.uniform(0.1, 1.0, (n, n))
    K = K + K.T  # symmetric conductances
    pi = 10.0 ** rng.uniform(-4, 4, n)
    L = K / pi[:, None]  # pi_x L(x, y) = K(x, y)
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1) - 0.3)
    chain = qslab.validate_chain(L)
    assert chain.reversible
    qslab.solve_spectral(chain)  # its residual check passes


def test_chains_that_break_detailed_balance_are_not_reversible(random_chain_set):
    from conftest import CYCLE_GENERATOR
    assert not any(chain.reversible for chain in random_chain_set)
    # symmetric support, but the cycle breaks Kolmogorov's criterion
    assert not qslab.validate_chain(CYCLE_GENERATOR).reversible
    one_way = [[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0], [1.0, 0.0, -2.0]]
    assert not qslab.validate_chain(one_way).reversible  # asymmetric support


@pytest.mark.parametrize("make_chain", [
    lambda: qslab.build_birth_death(30, [1.0] * 29 + [0.0], [3.0] * 30),
    chain_model.bd5,
], ids=["drifted-ladder", "bd5"])
def test_reversible_chain_gives_a_biorthonormal_basis(make_chain):
    chain = make_chain()
    w, vl, vr = chain.eigen
    assert w.dtype == float and np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(vl.T @ vr, np.eye(chain.n), rtol=0, atol=1e-13)
    L = chain.sub_generator
    # relative to each mode's scale: the drifted ladder's pi spans 14 decades
    resid = np.abs(L @ vr - vr * w).max(axis=0) / np.abs(vr).max(axis=0)
    assert resid.max() < 1e-13
