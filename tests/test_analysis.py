"""A run makes exactly one dense eigen-decomposition and computes its
spectral triple, Q-process, centred observable and certificate once (the
sampler, `qed` and the gap check take the run's Q-process); sigma^2 is
solved once per run (`variance` and `all` write that Poisson value beside the quadrature,
with no second solve); a reversible chain's triple and semigroups come from
its symmetric eigenbasis, not from eig and Pade; the moment oracle
takes one Pade approximant per dyadic family of times (the default grids of
`moments` and `qed` are one family each), in that basis too, so that no
product of the original basis's ring runs; and the sampler makes one
kernel pass per method over a run's times, so `all` simulates each replica
once for `clt` and `qed` together when they share a method.

The counting test wraps the expensive primitives wherever a qslab module
holds them by name and runs `cli.main` in process.  The equality test shows
that the stages of `all`, sharing one analysis, write the same rows as the
standalone subcommands, each of which builds its own.  The import test
keeps each module's private names its own: a computation another module
needs is reached through a public function.
"""

import ast
import functools
import sys
from pathlib import Path

import numpy as np
import pytest

from qslab import chain_model, cli, montecarlo, qprocess, spectral, variance_clt


def _count(monkeypatch, counts, name, module, attr):
    """Count calls of module.attr made outside a plain exponential, which
    counts under "expm" alone, though it runs the moment ring's Pade and
    products at degree 0.  A qslab function is wrapped in every qslab
    module that imported it; a foreign one (an eigensolver) only in
    the module named, so each module's binding counts on its own."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        if counts["inside_expm"]:
            return original(*args, **kwargs)
        counts[name] += 1
        counts["inside_expm"] = name == "expm"
        try:
            return original(*args, **kwargs)
        finally:
            counts["inside_expm"] = False

    holders = [module]
    if original.__module__.startswith("qslab."):
        holders += [m for key, m in list(sys.modules.items())
                    if key == "qslab" or key.startswith("qslab.")]
    for holder in holders:
        for key, val in list(vars(holder).items()):
            if val is original:
                monkeypatch.setattr(holder, key, counted)


@pytest.fixture
def drifted_model(tmp_path):
    """Path of a model file holding a ladder with birth 1 and death 2:
    reversible, but not symmetric."""
    path = tmp_path / "drifted.yaml"
    path.write_text("birth_death: {n: 6, birth: [1, 1, 1, 1, 1, 0], death: [2, 2, 2, 2, 2, 2]}\n")
    return str(path)


@pytest.fixture
def constant_model(tmp_path):
    """Path of a model file holding a two-state chain with a constant observable."""
    path = tmp_path / "constant.yaml"
    path.write_text("generator: [[-2.0, 1.0], [1.0, -2.0]]\nobservable: [0.5, 0.5]\n")
    return str(path)


@pytest.fixture
def counted_main(monkeypatch, tmp_path, cycle_model, drifted_model, constant_model):
    wrapped = {
        "solve": (spectral, "solve_spectral"),
        "profile": (spectral, "certification_profile"),
        "h_transform": (qprocess, "h_transform"),
        "expm": (spectral, "exponential"),
        "sigma2_poisson": (variance_clt, "sigma2_poisson"),
        "eigvals": (np.linalg, "eigvals"),
        "eig": (chain_model, "eig"),
        "eigh": (chain_model, "eigh"),
        "linalg.eig": (np.linalg, "eig"),
        "pade": (spectral, "_pade13"),
        "dense_ring": (spectral, "_poly_mul"),
        "passes": (montecarlo, "_batch_statistics"),
    }

    def run(*argv):
        models = {"cycle": cycle_model, "drifted": drifted_model, "constant": constant_model}
        argv = [models.get(a, a) for a in argv]
        counts = dict.fromkeys([*wrapped, "shifted", "observables", "inside_expm"], 0)
        build_shift = chain_model.AbsorbedChain.shifted.func
        post_init = variance_clt.AdditiveObservable.__post_init__

        def counted_observable(obs):
            counts["observables"] += 1
            post_init(obs)

        def counted_shift(chain):
            counts["shifted"] += 1
            return build_shift(chain)

        shifted = functools.cached_property(counted_shift)
        shifted.__set_name__(chain_model.AbsorbedChain, "shifted")
        with monkeypatch.context() as mp:
            for name, (module, attr) in wrapped.items():
                _count(mp, counts, name, module, attr)
            mp.setattr(chain_model.AbsorbedChain, "shifted", shifted)
            mp.setattr(variance_clt.AdditiveObservable, "__post_init__", counted_observable)
            rc = cli.main([*argv, "--threads", "1", "--out", str(tmp_path / argv[0])])
        assert rc == 0
        return counts

    return run


@pytest.mark.parametrize("argv, expected", [
    (("spectral", "--model", "m2sym"), {"profile": 0, "h_transform": 0, "eig": 0, "eigh": 1}),
    (("certify", "--model", "m2sym"),
     {"profile": 1, "h_transform": 0, "expm": 0, "eig": 0, "eigh": 1}),
    (("qprocess", "--model", "m2sym"),
     {"profile": 1, "h_transform": 1, "expm": 0, "eigh": 1}),
    # 13 certificate times, then the gap's two exponentials of the chain and none of L_Q
    (("qprocess", "--model", "cycle"), {"profile": 1, "h_transform": 1, "expm": 15, "eig": 1}),
    (("variance", "--model", "m2sym"),
     {"profile": 0, "h_transform": 1, "sigma2_poisson": 1, "expm": 1,
      "linalg.eig": 0}),
    (("moments", "--model", "m2sym"),
     {"profile": 0, "h_transform": 1, "expm": 0, "eig": 0, "eigh": 1, "pade": 1,
      "dense_ring": 0, "shifted": 0}),
    (("moments", "--model", "drifted"),
     {"h_transform": 1, "expm": 0, "eig": 0, "eigh": 1, "pade": 1,
      "dense_ring": 0}),
    (("charfun", "--model", "bd5"),
     {"profile": 0, "h_transform": 1, "expm": 3,
      "eigvals": 0, "sigma2_poisson": 1, "shifted": 1}),
    (("clt", "--model", "m2sym", "--n", "300", "--t", "25"),
     {"profile": 1, "h_transform": 1, "sigma2_poisson": 1, "passes": 1}),
    (("clt", "--model", "m2sym", "--n", "300", "--t", "1", "--method", "rejection"),
     {"profile": 0, "h_transform": 1, "eigh": 1, "passes": 1}),
    # a constant observable is sampled like any other
    (("clt", "--model", "constant", "--n", "300", "--t", "1", "--method", "rejection"),
     {"profile": 0, "h_transform": 1, "sigma2_poisson": 0, "passes": 1}),
    (("qed", "--model", "m2sym", "--n", "300"),
     {"profile": 0, "h_transform": 1, "sigma2_poisson": 0, "pade": 1, "passes": 1}),
    # bd5's default qed grid straddles 3/lambda0: one pass per method
    (("qed", "--model", "bd5", "--n", "300"), {"h_transform": 1, "pade": 1, "passes": 2}),
    (("all", "--model", "m2sym", "--n", "300"),
     {"profile": 1, "h_transform": 1, "expm": 4, "eigvals": 0,
      "linalg.eig": 0, "sigma2_poisson": 1, "eig": 0, "eigh": 1, "pade": 2, "dense_ring": 0,
      "shifted": 1, "passes": 1}),
    (("all", "--model", "bd5", "--n", "300"),
     {"h_transform": 1, "expm": 4, "eig": 0, "eigh": 1,
      "pade": 2, "dense_ring": 0, "passes": 2}),
    (("all", "--model", "drifted", "--n", "300"),
     {"h_transform": 1, "expm": 4, "eig": 0, "eigh": 1,
      "pade": 2, "dense_ring": 0, "passes": 1}),
    (("all", "--model", "cycle", "--n", "300"),
     {"profile": 1, "h_transform": 1, "expm": 20,
      "linalg.eig": 0, "eig": 1, "eigh": 0, "pade": 2, "dense_ring": 18, "shifted": 1,
      "passes": 2}),
], ids=["spectral", "certify", "qprocess", "qprocess-cycle", "variance", "moments",
        "moments-drifted", "charfun", "clt-qprocess",
        "clt-rejection", "clt-constant", "qed", "qed-bd5", "all", "all-bd5", "all-drifted",
        "all-cycle"])
def test_each_run_solves_and_certifies_once(counted_main, argv, expected):
    counts = counted_main(*argv)
    assert counts["solve"] == 1
    # one dense decomposition: eigh of a reversible chain's symmetric form,
    # which gives its triple and its semigroups, or else eig
    assert counts["eig"] + counts["eigh"] == 1
    # the chain's shifted generator is built at most once; L_Q needs no shift
    assert counts["shifted"] <= 1
    # make_observable builds the run's centred observable at most once
    assert counts["observables"] <= 1
    assert {k: counts[k] for k in expected} == expected


def _rows(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_all_writes_the_rows_of_the_standalone_subcommands(tmp_path):
    common = ("--model", "m2sym", "--seed", "5", "--threads", "1")
    assert cli.main(["all", *common, "--n", "600", "--out", str(tmp_path / "all")]) == 0
    gamma = next(float(line.split(",")[2]) for line in _rows(tmp_path / "all" / "spectral.csv")
                 if line.startswith("gamma,"))
    stages = {
        "certify.csv": ("certify",),
        "qprocess.csv": ("qprocess", "--t", "1", "--T", format(1.0 + 4.0 / gamma, ".17g")),
        "variance.csv": ("variance",),
        "moments.csv": ("moments",),
        "charfun.csv": ("charfun",),
        "clt.csv": ("clt", "--t", format(50.0 / gamma, ".17g"), "--n", "600"),
        "qed.csv": ("qed", "--n", "600"),
    }
    for fname, (sub, *extra) in stages.items():
        out = tmp_path / sub
        assert cli.main([sub, *common, *extra, "--out", str(out)]) == 0
        assert _rows(out / fname) == _rows(tmp_path / "all" / fname), fname


def test_no_module_imports_a_private_name_of_another():
    """No module of the package imports a name with one leading underscore
    from a qslab module; dunder names such as __version__ stay allowed."""
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "qslab"):
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                          if a.name.startswith("_") and not a.name.startswith("__")]
    assert found == []
