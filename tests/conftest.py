import os
from pathlib import Path

import numpy as np
import pytest
import yaml

import qslab
from qslab.chain_model import AbsorbedChain

# pytest's own pythonpath setting does not reach the `python -m qslab.cli`
# subprocesses, which find the package through PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))


# symmetric support, but rates 1 one way round the cycle and 0.5 the other
# way break Kolmogorov's criterion: the smallest chain that is not reversible
CYCLE_GENERATOR = [[-2.0, 1.0, 0.5], [0.5, -2.0, 1.0], [1.0, 0.5, -2.0]]


@pytest.fixture
def cycle_model(tmp_path):
    """Path of a model file holding CYCLE_GENERATOR."""
    path = tmp_path / "cycle.yaml"
    path.write_text(yaml.safe_dump({"generator": CYCLE_GENERATOR}))
    return str(path)


@pytest.fixture(scope="session")
def m2sym_bundle():
    return qslab.resolve_model("m2sym")


@pytest.fixture(scope="session")
def m2asym_bundle():
    return qslab.resolve_model("m2asym")


@pytest.fixture(scope="session")
def bd5_bundle():
    return qslab.resolve_model("bd5")


@pytest.fixture(scope="session")
def m2sym_triple(m2sym_bundle):
    return qslab.solve_spectral(m2sym_bundle.chain)


@pytest.fixture(scope="session")
def m2asym_triple(m2asym_bundle):
    return qslab.solve_spectral(m2asym_bundle.chain)


@pytest.fixture(scope="session")
def bd5_triple(bd5_bundle):
    return qslab.solve_spectral(bd5_bundle.chain)


@pytest.fixture(scope="session")
def m2sym_qproc(m2sym_bundle, m2sym_triple):
    return qslab.h_transform(m2sym_bundle.chain, m2sym_triple)


@pytest.fixture(scope="session")
def m2asym_qproc(m2asym_bundle, m2asym_triple):
    return qslab.h_transform(m2asym_bundle.chain, m2asym_triple)


@pytest.fixture(scope="session")
def bd5_qproc(bd5_bundle, bd5_triple):
    return qslab.h_transform(bd5_bundle.chain, bd5_triple)


def _run_cert(qp):
    """The certificate a run builds for qp: its weight psi1 on the default grid."""
    return qslab.certify_ergodicity(qp.chain, qp.triple, qp.psi1,
                                    qslab.default_time_grid(qp.triple.gamma))


@pytest.fixture(scope="session")
def m2sym_cert(m2sym_qproc):
    return _run_cert(m2sym_qproc)


@pytest.fixture(scope="session")
def m2asym_cert(m2asym_qproc):
    return _run_cert(m2asym_qproc)


def make_random_chain(rng, n=None) -> AbsorbedChain:
    """Dense irreducible chain with one killed state, time-normalized so the
    spectral gap is 1 (scaling leaves alpha and eta untouched)."""
    if n is None:
        n = int(rng.integers(5, 16))
    A = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(A, 0.0)
    kappa = np.zeros(n)
    kappa[rng.integers(0, n)] = rng.uniform(0.5, 1.5)
    L = A.copy()
    np.fill_diagonal(L, -(A.sum(axis=1) + kappa))
    chain = qslab.validate_chain(L)
    gamma = qslab.solve_spectral(chain).gamma
    return qslab.validate_chain(L / gamma)


@pytest.fixture(scope="session")
def random_chain_set():
    """The 20-chain regression set shared by the eigen-identity, h-transform
    and variance cross-oracle checks."""
    rng = np.random.default_rng(12345)
    return [make_random_chain(rng) for _ in range(20)]
