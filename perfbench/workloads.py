"""The three benchmark workloads: their inputs, operations and checks.

A workload writes its model files once (set-up), then lists the qslab
command lines of one round.  Every operation writes into its own output
directory and names the check its outputs must pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

import checks
import models


@dataclass(frozen=True)
class Op:
    name: str
    argv: list
    out: str
    check: Callable[[str], None]
    replicas: int = 0                    # Monte Carlo replicas requested
    compare: tuple = ()                  # output files that must not change under --threads 2


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[str, int], dict]
    ops: Callable[[dict, int, str], list]
    repro: Optional[str] = None          # op rerun with --threads 2 after timing


def _op(name, sub, model, seed, work, check, extra=(), replicas=0, compare=()):
    out = os.path.join(work, name)
    argv = [sub, "--model", model, *extra, "--seed", str(seed), "--threads", "1",
            "--out", out]
    return Op(name=name, argv=argv, out=out, check=check, replicas=replicas,
              compare=compare)


# ---------------------------------------------------------------------------
# clt-m2sym: the Monte Carlo draw and step kernels

CLT_N = 20_000


def _clt_inputs(work, seed):
    n = 5
    bd5 = models.Model(path="bd5", L=models.ladder_generator(n), mu=np.full(n, 1.0 / n),
                       f=np.eye(n)[0])
    return {"bd5": bd5}


def _clt_ops(inputs, seed, work):
    dump = ("clt.csv", "clt_samples.txt")
    return [
        _op("m2sym-t200", "clt", "m2sym", seed, work,
            partial(checks.clt_qprocess, t=200.0, n=CLT_N, sigma2=1.0, d_max=0.02),
            ("--t", "200", "--n", str(CLT_N), "--dump"), CLT_N, dump),
        _op("m2sym-t25", "clt", "m2sym", seed, work,
            partial(checks.clt_qprocess, t=25.0, n=CLT_N, sigma2=1.0, d_max=None),
            ("--t", "25", "--n", str(CLT_N), "--dump"), CLT_N, dump),
        _op("bd5-rejection-t20", "clt", "bd5", seed, work,
            partial(checks.clt_rejection, model=inputs["bd5"]),
            ("--method", "rejection", "--t", "20", "--n", str(CLT_N)), CLT_N,
            ("clt.csv",)),
    ]


# ---------------------------------------------------------------------------
# pipeline-dense: `qslab all` on a dense generated chain

PIPELINE_N = 10_000


def _dense_inputs(work, seed):
    rng = np.random.default_rng([seed, 1])
    return {"dense": models.write_dense(os.path.join(work, "dense.yaml"), models.DENSE_N, rng)}


def _dense_ops(inputs, seed, work):
    dense = inputs["dense"]
    # `all` samples clt once and qed at three times, n replicas each
    return [_op("all", "all", dense.path, seed, work,
                partial(checks.pipeline, model=dense),
                ("--n", str(PIPELINE_N)), 4 * PIPELINE_N)]


# ---------------------------------------------------------------------------
# oracles-ladder: spectral, certificate, Q-process and variance oracles

def _ladder_inputs(work, seed):
    rng = np.random.default_rng([seed, 2])
    return {
        "ladder": models.write_ladder(os.path.join(work, "ladder.yaml"), models.LADDER_N, rng),
        # a fixed observable: the quadrature's step count depends on f
        "small": models.write_ladder(os.path.join(work, "ladder-small.yaml"),
                                     models.VARIANCE_LADDER_N, rng,
                                     observable=np.eye(models.VARIANCE_LADDER_N)[0]),
        "kill20": models.write_kill20(os.path.join(work, "swap-kill20.yaml")),
    }


def _ladder_ops(inputs, seed, work):
    lad, small, k20 = inputs["ladder"], inputs["small"], inputs["kill20"]
    return [
        _op("spectral", "spectral", lad.path, seed, work, partial(checks.spectral, model=lad)),
        _op("certify", "certify", lad.path, seed, work, partial(checks.certify, model=lad)),
        _op("qprocess", "qprocess", lad.path, seed, work, partial(checks.qprocess, model=lad)),
        _op("moments", "moments", lad.path, seed, work, checks.moments),
        _op("charfun", "charfun", lad.path, seed, work, checks.charfun),
        _op("variance", "variance", small.path, seed, work, checks.variance),
        # fails today with exit 4 (overflow-guard): the survival divisor
        # e^{-lambda0 t} underflows at lambda0 t = 1000
        _op("charfun-kill20", "charfun", k20.path, seed, work,
            partial(checks.charfun_swap, model=k20)),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("clt-m2sym", _clt_inputs, _clt_ops, repro="m2sym-t25"),
    Workload("pipeline-dense", _dense_inputs, _dense_ops),
    Workload("oracles-ladder", _ladder_inputs, _ladder_ops),
)}
