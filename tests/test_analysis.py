"""A run computes its eigen-decomposition, spectral triple, Q-process,
sigma^2 and certificate once.

The counting test wraps the expensive primitives wherever a qslab module
holds them by name and runs `cli.main` in process.  The equality test shows
that the stages of `all`, sharing one analysis, write the same rows as the
standalone subcommands, each of which builds its own.
"""

import functools
import sys

import numpy as np
import pytest

from qslab import chain_model, cli, qprocess, spectral, variance_clt


def _count(monkeypatch, counts, name, module, attr):
    """Count calls of module.attr.  A qslab function is wrapped in every
    qslab module that imported it; a foreign one (the shared scipy expm)
    only in the module named, so each module's binding counts on its own."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    holders = [module]
    if original.__module__.startswith("qslab."):
        holders += [m for key, m in list(sys.modules.items())
                    if key == "qslab" or key.startswith("qslab.")]
    for holder in holders:
        for key, val in list(vars(holder).items()):
            if val is original:
                monkeypatch.setattr(holder, key, counted)


@pytest.fixture
def counted_main(monkeypatch, tmp_path):
    wrapped = {
        "solve": (spectral, "solve_spectral"),
        "profile": (spectral, "certification_profile"),
        "h_transform": (qprocess, "h_transform"),
        "spectral.expm": (spectral, "expm"),
        "variance_clt.expm": (variance_clt, "expm"),
        "sigma2_poisson": (variance_clt, "sigma2_poisson"),
        "eigvals": (np.linalg, "eigvals"),
        "eig": (chain_model, "eig"),
    }

    def run(*argv):
        counts = dict.fromkeys(wrapped, 0)
        with monkeypatch.context() as mp:
            for name, (module, attr) in wrapped.items():
                _count(mp, counts, name, module, attr)
            rc = cli.main([*argv, "--threads", "1", "--out", str(tmp_path / argv[0])])
        assert rc == 0
        return counts

    return run


@pytest.mark.parametrize("argv, expected", [
    (("spectral", "--model", "m2sym"), {"profile": 0, "h_transform": 0}),
    (("certify", "--model", "m2sym"), {"profile": 1, "h_transform": 0}),
    (("qprocess", "--model", "m2sym"), {"profile": 1}),
    (("variance", "--model", "m2sym"), {"profile": 0, "sigma2_poisson": 1}),
    (("moments", "--model", "m2sym"), {"profile": 0, "variance_clt.expm": 0}),
    (("charfun", "--model", "bd5"),
     {"profile": 0, "variance_clt.expm": 4, "eigvals": 0, "sigma2_poisson": 1}),
    (("clt", "--model", "m2sym", "--n", "300", "--t", "25"), {"profile": 1, "sigma2_poisson": 1}),
    (("clt", "--model", "m2sym", "--n", "300", "--t", "1", "--method", "rejection"),
     {"profile": 0}),
    (("qed", "--model", "m2sym", "--n", "300"),
     {"profile": 0, "h_transform": 3, "sigma2_poisson": 0}),
    (("all", "--model", "m2sym", "--n", "300"),
     {"profile": 1, "h_transform": 6, "spectral.expm": 13, "variance_clt.expm": 5, "eigvals": 0,
      "sigma2_poisson": 2}),
], ids=["spectral", "certify", "qprocess", "variance", "moments", "charfun", "clt-qprocess",
        "clt-rejection", "qed", "all"])
def test_each_run_solves_and_certifies_once(counted_main, argv, expected):
    counts = counted_main(*argv)
    assert counts["solve"] == 1
    assert counts["eig"] == 1  # the chain's one LAPACK eig serves the triple and the shift
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
