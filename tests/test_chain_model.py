import hashlib
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import qslab
from qslab import chain_model
from qslab.chain_model import BUILTIN_MODELS
from qslab.errors import BudgetExceeded, ValidationError

import oracles
import paper_checks
from conftest import make_random_chain
from test_cli_fuzz import BREAKS, model_documents


def test_validate_accepts_and_extracts_killing():
    chain = qslab.validate_chain([[-2.0, 1.0], [1.0, -2.0]])
    assert chain.n == 2
    np.testing.assert_allclose(chain.killing, [1.0, 1.0], rtol=0, atol=1e-14)


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


def test_birth_death_past_the_ceiling_is_refused_before_it_is_built():
    n = chain_model.BIRTH_DEATH_MAX_STATES + 1
    with pytest.raises(BudgetExceeded) as exc:
        qslab.build_birth_death(n, [1.0] * (n - 1) + [0.0], [1.0] * n)
    assert exc.value.exit_code == 4 and exc.value.code == "budget-exceeded"
    assert f"n = {n} states needs {8.0 * n * n:.3g} bytes" in str(exc.value)


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
    paper_checks.emit_model_config(bd5_bundle, path)
    loaded = qslab.load_model_config(path)
    np.testing.assert_allclose(
        loaded.chain.sub_generator, bd5_bundle.chain.sub_generator, rtol=0, atol=0
    )
    np.testing.assert_allclose(loaded.psi1, bd5_bundle.psi1, rtol=0, atol=0)
    np.testing.assert_allclose(loaded.mu, bd5_bundle.mu, rtol=0, atol=0)
    np.testing.assert_allclose(loaded.f, bd5_bundle.f, rtol=0, atol=0)
    assert loaded.source == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def test_model_objects_compare_and_hash_by_identity(bd5_bundle, bd5_triple, bd5_qproc):
    """Bundles, chains, triples, Q-processes and the result records (paths,
    samples, observables, moments) hold
    numpy arrays, so equality is identity: == gives a bool and hash works,
    where a field-wise == would raise."""
    again = qslab.resolve_model("bd5")
    again_triple = qslab.solve_spectral(again.chain)
    pairs = [(bd5_bundle, again), (bd5_bundle.chain, again.chain),
             (bd5_triple, again_triple),
             (bd5_qproc, qslab.h_transform(again.chain, again_triple))]
    chain, qp, mu, f = bd5_bundle.chain, bd5_qproc, bd5_bundle.mu, bd5_bundle.f
    makers = (lambda: oracles.simulate_absorbed(chain, mu, 5.0, (1, 0)),
              lambda: qslab.conditional_clt_sample(qp, mu, f, 5.0, 50, seed=1),
              lambda: qslab.make_observable(qp, f),
              lambda: qslab.exact_conditional_moments(chain, mu, f, 2, 5.0))
    pairs += [(make(), make()) for make in makers]
    assert [type(obj).__name__ for obj, _ in pairs[4:]] == [
        "Trajectory", "EmpiricalDistribution", "AdditiveObservable", "MomentValues"]
    for obj, twin in pairs:
        assert (obj == obj) is True and (obj == twin) is False
        assert hash(obj) == hash(obj) and len({obj, twin}) == 2


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
    assert bundle.source == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


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
        if fname == "notyaml.yaml":  # the parser's own message, which names the file
            with open(path) as fh, pytest.raises(yaml.YAMLError) as raw:
                yaml.load(fh, Loader=chain_model._YAML_LOADER)
            assert f'in "{path}"' in str(raw.value)
            assert str(exc.value) == f"malformed YAML in {path}: {raw.value}"


def _assert_same_bundle(a, b):
    for x, y in ((a.chain.sub_generator, b.chain.sub_generator),
                 (a.chain.killing, b.chain.killing), (a.psi1, b.psi1),
                 (a.mu, b.mu), (a.f, b.f)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_c_and_python_yaml_loaders_give_equal_bundles(tmp_path, monkeypatch):
    chain = make_random_chain(np.random.default_rng(7), n=40)
    rng = np.random.default_rng(8)
    mu = rng.uniform(0.5, 1.5, 40)
    dense = chain_model.ModelBundle(chain=chain, psi1=np.ones(40), mu=mu / mu.sum(),
                                    f=rng.uniform(-1.0, 1.0, 40), source="dense40")
    paper_checks.emit_model_config(dense, tmp_path / "dense.yaml")
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
    # a fourth nested collection, also after a tag, an anchor or a collection as a key
    for i, text in enumerate(("generator: [[[1.0]]]\n", "a: !!seq [[[1]]]\n", "a: &x [[[1]]]\n",
                              "a:\n  ? [x]\n  : 1\nb: [[[1.0]]]\n")):
        path = tmp_path / f"deep{i}.yaml"
        path.write_text(text)
        with pytest.raises(ValidationError, match="^collections nest deeper than 3 in ") as exc:
            qslab.load_model_config(path)
        assert exc.value.code == "parse-error"


YAML_LOADERS = [pytest.param(name, marks=pytest.mark.skipif(
    not hasattr(yaml, name), reason="PyYAML built without libyaml"))
    for name in ("SafeLoader", "CSafeLoader")]
# read from parser events: every one is a value SafeLoader builds the same
EVENT_DOCUMENTS = [
    "a: -0.0\nb: +1.5e+3\nc: 1.\nd: -7\ne: 0\nf: +12\ng: 1.5E-3\nh: -0\n",
    "big: 123456789012345678901234567890123\nf: 1234567890123456789012.5e+300\n",
    "q: '1.5'\nd: \"2\"\nblock: |\n  1.0\n  two\nfolded: >\n  3\n  4\n",
    "a: 1\nb: [x]\na: 2.0\n",  # a duplicate key: the last value wins
    "e: 1e3\nf: 1.0e3\ns: abc\nt: 1.5 x\nu: 1-2\nv: 1.2.3\n",
    "[[1.0, -2], {k: [], m: {}}, '']\n",
    "---\nplain: text\n...\n",
]
# left to yaml.load, whose object or error the loader returns or raises
FALLBACK_DOCUMENTS = [
    "a: 010\n", "a: 1_000\n", "a: .inf\n", "a: -.inf\n", "a: .nan\n", "a: 0x1F\n",
    "a: 1:30\n", "a: yes\n", "a: off\n", "a: ~\n", "a: null\n", "a:\n", "<<: {b: 1}\n",
    "a: =\n", "a: 2001-12-14\n", "a: !!float 1\n", "a: !!str 1\n", "a: ! 1\n",
    "a: &x 1\nb: *x\n", "a: *x\n", "a: &y [1.0]\n", "a: 1\n---\nb: 2\n", "? [1, 2]\n: 3\n",
    "{a: 1}: 2\n", "", "a: [1.0\n", "\tgenerator: 1\n", "a: !!binary aGk=\n",
]


def _yaml_load(path):
    """yaml.load's object, or its error's type and text."""
    try:
        with open(path) as fh:
            return yaml.load(fh, Loader=chain_model._YAML_LOADER)
    except yaml.YAMLError as exc:
        return type(exc), str(exc)


def _event_document(path):
    with open(path) as fh:
        return chain_model._event_document(fh)


def _count_yaml_loads(monkeypatch):
    calls = []
    load = yaml.load
    monkeypatch.setattr(yaml, "load", lambda *a, **k: calls.append(1) or load(*a, **k))
    return calls


@pytest.mark.parametrize("loader", YAML_LOADERS)
def test_event_loader_builds_what_yaml_load_builds(tmp_path, monkeypatch, loader):
    """Documents in the event loader's subset give objects whose repr equals
    yaml.load's; every other document is left to yaml.load, one call, so the
    object or the parse error is yaml.load's own."""
    monkeypatch.setattr(chain_model, "_YAML_LOADER", getattr(yaml, loader))
    calls = _count_yaml_loads(monkeypatch)
    for i, text in enumerate(EVENT_DOCUMENTS + FALLBACK_DOCUMENTS):
        path = tmp_path / f"doc{i}.yaml"
        path.write_text(text)
        got, want = _event_document(path), _yaml_load(path)
        assert (got is None) == (text in FALLBACK_DOCUMENTS), text
        assert got is None or repr(got) == repr(want), text
        del calls[:]
        try:
            qslab.load_model_config(path)
        except ValidationError:
            pass
        assert len(calls) == (text in FALLBACK_DOCUMENTS), text


@pytest.mark.parametrize("loader", YAML_LOADERS)
def test_model_files_are_read_without_yaml_load(tmp_path, monkeypatch, loader, bd5_bundle):
    """An emitted bundle and a dense file written as the benchmark writes
    one (repr floats with a dot and a signed exponent) take no yaml.load."""
    monkeypatch.setattr(chain_model, "_YAML_LOADER", getattr(yaml, loader))
    L = np.array(make_random_chain(np.random.default_rng(3), n=30).sub_generator)
    L[0, 0], L[0, 1] = L[0, 0] - 1e-7 - L[0, 1], 1e-7
    rows = "".join("  - [" + ", ".join(re.sub(r"^(-?[0-9]+)e", r"\1.0e", repr(v)) for v in row)
                   + "]\n" for row in L.tolist())
    (tmp_path / "dense.yaml").write_text(f"name: dense-30\ngenerator:\n{rows}")
    paper_checks.emit_model_config(bd5_bundle, tmp_path / "bd5.yaml")
    calls = _count_yaml_loads(monkeypatch)
    dense = qslab.load_model_config(tmp_path / "dense.yaml")
    again = qslab.load_model_config(tmp_path / "bd5.yaml")
    assert calls == []
    assert np.array_equal(dense.chain.sub_generator, L)
    _assert_same_bundle(again, bd5_bundle)
    for name in ("dense.yaml", "bd5.yaml"):
        assert repr(_event_document(tmp_path / name)) == repr(_yaml_load(tmp_path / name))


@pytest.mark.parametrize("loader", YAML_LOADERS)
@pytest.mark.parametrize("brk", [None, *BREAKS])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_generated_model_documents_read_as_yaml_load_reads_them(brk, loader, data):
    """The documents of the model-file property test, valid and broken: the
    event loader equals yaml.load, and falls back exactly where safe_dump
    wrote a non-finite float."""
    text = yaml.safe_dump(data.draw(model_documents(brk)))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain_model, "_YAML_LOADER", getattr(yaml, loader))
        path = Path(tmp) / "model.yaml"
        path.write_text(text)
        got, want = _event_document(path), _yaml_load(path)
    assert (got is None) == any(w in text for w in (".nan", ".inf")), text
    assert got is None or repr(got) == repr(want)


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
        assert bundle.source == f"builtin:{name}"
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


_RATES = st.one_of(st.just(0.0), st.floats(0.01, 10.0))


@st.composite
def model_bundles(draw):
    """A valid bundle on 2..6 states: random rates (some zero) plus a cycle
    through every state, so the chain is strongly connected, killing at one
    state at least, and random psi1 >= 1, mu, f with max|f| <= 1 and source."""
    n = draw(st.integers(2, 6))
    vec = lambda values: np.array(draw(st.lists(values, min_size=n, max_size=n)))
    A = np.array(draw(st.lists(_RATES, min_size=n * n, max_size=n * n))).reshape(n, n)
    A[np.arange(n), (np.arange(n) + 1) % n] = vec(st.floats(0.01, 10.0))
    np.fill_diagonal(A, 0.0)
    kappa = vec(_RATES)
    kappa[draw(st.integers(0, n - 1))] = draw(st.floats(0.01, 10.0))
    mu = vec(st.floats(0.01, 1.0))
    return chain_model.ModelBundle(
        chain=qslab.validate_chain(A - np.diag(A.sum(axis=1) + kappa)),
        psi1=vec(st.floats(1.0, 10.0)), mu=mu / mu.sum(), f=vec(st.floats(-1.0, 1.0)),
        source=draw(st.text("abz-_ 019", max_size=6)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(model_bundles())
def test_generated_chains_keep_the_q_process_and_yaml_invariants(bundle):
    """L_Q's rows sum to 0 within 2 n eps max|L_Q| (h_transform sets the
    diagonal from the off-diagonal sum), beta L_Q = 0 within 1e-12 max|L_Q|
    (the triple's residuals carry over; 2000 such chains stayed below 4 n
    eps max|L_Q|), and load(emit(b)) gives back b field by field."""
    chain = bundle.chain
    qp = qslab.h_transform(chain, qslab.solve_spectral(chain), bundle.psi1)
    scale = np.abs(qp.q_generator).max()
    assert np.abs(qp.q_generator.sum(axis=1)).max() <= 2 * chain.n * np.finfo(float).eps * scale
    assert np.abs(qp.beta @ qp.q_generator).max() <= 1e-12 * scale
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.yaml"
        paper_checks.emit_model_config(bundle, path)
        _assert_same_bundle(qslab.load_model_config(path), bundle)
