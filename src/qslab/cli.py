"""Command-line entry point.

Every subcommand writes CSV reports (with a '#'-prefixed metadata header,
floats at 17 significant digits) plus a manifest JSON naming the inputs that
determine every emitted number.  Exit codes: 2 usage, 3 validation,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from functools import cache, cached_property

import numpy as np

from . import __version__, montecarlo, qprocess, variance_clt
from .blas import pin_blas_threads
from .chain_model import BUILTIN_MODELS, ModelBundle, resolve_model
from .errors import DegenerateVariance, QslabError, ValidationError
from .spectral import certify_ergodicity, default_time_grid, solve_spectral

_DUMP_CHUNK = 65536  # values per write of a one-value-per-line dump


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    return str(v)


def _write_csv(path, meta, columns, rows):
    with open(path, "w", newline="") as fh:
        for k, v in meta.items():
            fh.write(f"# {k} = {_fmt(v)}\n")
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_values(fh, values):
    """One f"{v:.17g}" line per float, formatted _DUMP_CHUNK values at a time
    ("%.17g" gives the same bytes), so memory stays bounded."""
    for lo in range(0, len(values), _DUMP_CHUNK):
        chunk = tuple(values[lo:lo + _DUMP_CHUNK].tolist())
        fh.write(("%.17g\n" * len(chunk)) % chunk)


def _model_id(spec: str) -> str:
    if spec.lower() in BUILTIN_MODELS:
        return f"builtin:{spec.lower()}"
    with open(spec, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _manifest(args, params: dict):
    determ = {
        "subcommand": args.cmd,
        "model": _model_id(args.model),
        "params": params,
        "seed": args.seed,
        "version": __version__,
    }
    digest = hashlib.sha256(
        json.dumps(determ, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return determ, digest


def _floats(name, text):
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        vals = []
    if not vals or not np.all(np.isfinite(vals)):
        raise ValidationError(f"--{name} needs comma-separated finite numbers, got {text!r}")
    return vals


def _check_args(args):
    """Reject out-of-range numeric options and parse the comma-separated
    lists in place, so that the runners see finite values only."""
    if not 0 <= args.seed < 2 ** 64:
        raise ValidationError(f"--seed must be a u64, got {args.seed}")
    for name in ("n", "tpoints"):
        if getattr(args, name, 1) < 1:
            raise ValidationError(f"--{name} must be at least 1, got {getattr(args, name)}")
    lows = {"t": 0.0 if args.cmd == "clt" else -np.inf, "T": -np.inf, "tmax": 0.0}
    for name, low in lows.items():
        value = getattr(args, name, None)
        if value is not None and not low < value < np.inf:
            raise ValidationError(f"--{name} must lie in ({low}, inf), got {value}")
    for name in ("times", "omegas"):
        if getattr(args, name, None) is not None:
            setattr(args, name, _floats(name, getattr(args, name)))


class _Analysis:
    """One run's spectral triple, Q-process, observable, Poisson sigma^2 and
    certificate, each computed on first use and then shared by every stage
    of the run.  The certificate grid has tpoints geometric times after 0,
    out to tmax if given and to the default 6/gamma otherwise."""

    def __init__(self, bundle: ModelBundle, tpoints: int, tmax):
        self.bundle = bundle
        self._tpoints, self._tmax = tpoints, tmax

    @cached_property
    def triple(self):
        return solve_spectral(self.bundle.chain)

    @cached_property
    def qp(self):
        return qprocess.h_transform(self.bundle.chain, self.triple, self.bundle.psi1)

    @cached_property
    def obs(self):
        return variance_clt.make_observable(self.qp, self.bundle.f)

    @cached_property
    def sigma2(self):
        return variance_clt.sigma2_poisson(self.qp, self.obs, with_quadrature=False).sigma2

    @cached_property
    def cert(self):
        gamma = self.triple.gamma
        grid = default_time_grid(gamma, self._tpoints)
        if self._tmax is not None:
            grid = np.concatenate([[0.0], np.geomspace(0.1 / gamma, self._tmax, self._tpoints)])
        return certify_ergodicity(self.bundle.chain, self.triple, self.bundle.psi1, grid)


# ---------------------------------------------------------------------------
# subcommand implementations; each returns {filename: (meta, columns, rows)}

def _run_spectral(an):
    triple, chain = an.triple, an.bundle.chain
    L = chain.sub_generator
    res_a = np.abs(triple.alpha @ L + triple.lambda0 * triple.alpha)
    res_e = np.abs(L @ triple.eta + triple.lambda0 * triple.eta)
    rows = [("lambda0", "", triple.lambda0, float(res_a.max())),
            ("gamma", "", triple.gamma, "")]
    rows += [("alpha", i, triple.alpha[i], float(res_a[i])) for i in range(chain.n)]
    rows += [("eta", i, triple.eta[i], float(res_e[i])) for i in range(chain.n)]
    return {"spectral.csv": ({}, ("object", "index", "value", "residual"), rows)}


def _run_certify(an):
    cert = an.cert
    meta = {"C": cert.C, "gamma": cert.gamma, "worst_ratio": cert.worst_ratio,
            "slack_factor": cert.slack_factor, "argmax_t": cert.argmax_t,
            "note": "grid certificate; not a proof between grid points"}
    return {"certify.csv": (meta, ("t", "ratio"), cert.profile)}


def _run_qprocess(an, t, T):
    rep = qprocess.conditional_vs_q_gap(an.qp, an.bundle.mu, t, T, an.cert)
    rows = [(rep.t, rep.T, rep.tv_gap, rep.tv_gap_sum, rep.bound,
             rep.threshold_T, rep.threshold_ok)]
    return {"qprocess.csv": ({"gamma": an.triple.gamma},
                             ("t", "T", "tv_gap", "tv_gap_sum", "bound",
                              "threshold_T", "threshold_ok"), rows)}


def _run_variance(an):
    s2 = an.sigma2
    quad, H, bound = variance_clt.sigma2_quadrature(an.qp, an.obs)
    meta = {"tolerance_cross_oracle": 1e-8}
    rows = [(s2, quad, abs(s2 - quad), bound, H, H)]
    return {"variance.csv": (meta, ("sigma2", "quadrature", "abs_diff",
                                    "error_bound", "horizon", "step"), rows)}


def _run_moments(an, kmax, times):
    gamma = an.triple.gamma
    times = times or [5.0 / gamma, 10.0 / gamma]
    mvs = variance_clt.exact_conditional_moments(an.qp, an.bundle.mu, an.obs.f_centered,
                                                 kmax, times)
    rows = [(k, t, mv.m[k], mv.conditional[k], mv.survival)
            for t, mv in zip(times, mvs) for k in range(kmax + 1)]
    meta = {"kmax": kmax, "observable_centered": True}
    return {"moments.csv": (meta, ("k", "t", "m_k", "conditional_m_k", "survival"), rows)}


def _run_charfun(an, omegas, times):
    b, s2 = an.bundle, an.sigma2
    omegas = omegas or [0.5, 1.0, 2.0]
    times = times or [100.0 / an.triple.gamma]
    rows = []
    for t in times:
        cfs = variance_clt.exact_conditional_charfuns(b.chain, b.mu, an.obs.f_centered,
                                                      omegas, t)
        for w, cf in zip(omegas, cfs):
            lim = float(np.exp(-s2 * w * w / 2.0))
            rows.append((w, t, cf.real, cf.imag, lim, abs(cf - lim)))
    meta = {"sigma2": s2, "tolerance_gauss_limit": 0.05}
    return {"charfun.csv": (meta, ("omega", "t", "re", "im", "gauss_limit",
                                   "abs_gap"), rows)}


def _sample(an, t, n, method, seed, clt=True):
    """One sampler call, after refusing a clt row whose nonconstant f has sigma^2 ~ 0."""
    if clt and an.obs.f_centered.any() and an.sigma2 <= 1e-12:
        raise DegenerateVariance(
            f"sigma^2 = {an.sigma2} for a nonconstant observable; no CLT asserted")
    return montecarlo.conditional_clt_sample(an.qp, an.bundle.mu, an.obs, t, n,
                                             method=method, seed=seed)


def _run_clt(an, emp, dump):
    b, triple = an.bundle, an.triple
    s2, d, gap_bound = 0.0, float("nan"), float("nan")
    if an.obs.f_centered.any():
        s2 = an.sigma2
        d = montecarlo.kolmogorov_distance(emp, s2)
        if emp.method == "qprocess":
            # prefactor C mu(psi1)/mu(eta) of the coupling gap e^{-gamma (T - t)}
            gap_bound = float(an.cert.C * (b.mu @ b.psi1) / float(b.mu @ triple.eta))
    rows = [(emp.t, emp.n_effective, d, s2, emp.method, gap_bound)]
    out = {"clt.csv": ({"n_requested": emp.n_requested},
                       ("t", "n_eff", "d_kolm", "sigma2", "method", "gap_bound"), rows)}
    if dump:
        out["clt_samples.txt"] = (None, None, emp.samples)
    return out


def _run_qed(an, samples):
    rep = montecarlo.quasi_ergodic_check(an.qp, an.bundle.mu, an.obs, samples)
    meta = {"fitted_rate": rep.fitted_rate, "method": rep.method}
    return {"qed.csv": (meta, ("t", "mean_square", "stderr", "exact"), rep.rows)}


def _qed_times(an, times):
    """qed's times as given, else 10, 20 and 40 over gamma, refused before
    any sampling when quasi_ergodic_check would refuse them."""
    gamma = an.triple.gamma
    times = times or [10.0 / gamma, 20.0 / gamma, 40.0 / gamma]
    montecarlo.check_qed_times(times)
    return times


def _run_all(an, n, seed):
    gamma = an.triple.gamma
    out = {}
    out.update(_run_spectral(an))
    out.update(_run_certify(an))
    out.update(_run_qprocess(an, 1.0, 1.0 + 4.0 / gamma))
    out.update(_run_variance(an))
    out.update(_run_moments(an, 4, None))
    out.update(_run_charfun(an, None, None))
    clt, *qed = _sample(an, [50.0 / gamma, *_qed_times(an, None)], n, None, seed)
    out.update(_run_clt(an, clt, False))
    out.update(_run_qed(an, qed))
    return out


_RUNNERS = {
    "spectral": lambda an, a: _run_spectral(an),
    "certify": lambda an, a: _run_certify(an),
    "qprocess": lambda an, a: _run_qprocess(an, a.t, a.T),
    "variance": lambda an, a: _run_variance(an),
    "moments": lambda an, a: _run_moments(an, a.kmax, a.times),
    "charfun": lambda an, a: _run_charfun(an, a.omegas, a.times),
    "clt": lambda an, a: _run_clt(an, _sample(an, a.t, a.n, a.method, a.seed), a.dump),
    "qed": lambda an, a: _run_qed(an, _sample(an, _qed_times(an, a.times), a.n, a.method,
                                              a.seed, clt=False)),
    "all": lambda an, a: _run_all(an, a.n, a.seed),
}


@cache  # one parser per process: parse_args keeps no state in it
def build_parser():
    p = argparse.ArgumentParser(prog="qslab",
                                description="quasi-stationary laboratory for absorbed finite Markov chains")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--model", required=True,
                        help=f"model YAML file or one of {', '.join(BUILTIN_MODELS)}")
        sp.add_argument("--out", default="qslab_out", help="output directory")
        sp.add_argument("--seed", type=int, default=0, help="master seed (u64)")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: Monte Carlo runs in one thread")

    common(sub.add_parser("spectral", help="eigen-triple and gap"))
    sp = sub.add_parser("certify", help="exponential-ergodicity certificate")
    common(sp)
    sp.add_argument("--tmax", type=float, default=None)
    sp.add_argument("--tpoints", type=int, default=12)
    sp = sub.add_parser("qprocess", help="conditioned vs Q-process gap")
    common(sp)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--T", type=float, default=5.0)
    common(sub.add_parser("variance", help="asymptotic variance, two oracles"))
    sp = sub.add_parser("moments", help="exact Q-process moments")
    common(sp)
    sp.add_argument("--kmax", type=int, default=4)
    sp.add_argument("--times", default=None, help="comma-separated t grid")
    sp = sub.add_parser("charfun", help="exact conditional characteristic function")
    common(sp)
    sp.add_argument("--omegas", default=None, help="comma-separated omega values")
    sp.add_argument("--times", default=None, help="comma-separated t grid")
    sp = sub.add_parser("clt", help="Monte Carlo conditional CLT sample")
    common(sp)
    sp.add_argument("--t", type=float, default=100.0)
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--method", choices=["rejection", "qprocess"], default=None)
    sp.add_argument("--dump", action="store_true", help="write samples one per line")
    sp = sub.add_parser("qed", help="conditional mean-square ergodic decay")
    common(sp)
    sp.add_argument("--times", default=None, help="comma-separated t grid")
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--method", choices=["rejection", "qprocess"], default=None)
    sp = sub.add_parser("all", help="full pipeline on one model")
    common(sp)
    sp.add_argument("--n", type=int, default=20000, help="Monte Carlo replicas")
    return p


def main(argv=None) -> int:
    pin_blas_threads()  # the same bytes for any BLAS thread count
    parser = build_parser()
    args = parser.parse_args(argv)
    if any(isinstance(v, list) for v in vars(args).values()):  # argparse reads "--" as []
        parser.error("an option's value cannot be '--'")
    started = time.time()
    # the manifest records the options as given, before _check_args parses them
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("cmd", "model", "out", "seed", "threads")}
    try:
        _check_args(args)
        bundle = resolve_model(args.model)
        determ, digest = _manifest(args, params)
        analysis = _Analysis(bundle, getattr(args, "tpoints", 12), getattr(args, "tmax", None))
        outputs = _RUNNERS[args.cmd](analysis, args)
        os.makedirs(args.out, exist_ok=True)
        written = []
        for fname, (meta, columns, rows) in outputs.items():
            path = os.path.join(args.out, fname)
            if columns is None:  # bare one-value-per-line dump of a float array
                with open(path, "w") as fh:
                    fh.write(f"# manifest_hash = {digest}\n")
                    _write_values(fh, rows)
            else:
                full_meta = {"manifest_hash": digest, "model": determ["model"],
                             "seed": args.seed, "version": __version__}
                full_meta.update(meta or {})
                _write_csv(path, full_meta, columns, rows)
            written.append(fname)
        manifest = dict(determ)
        manifest["manifest_hash"] = digest
        manifest["outputs"] = written
        manifest["wall_clock_s"] = round(time.time() - started, 3)
        with open(os.path.join(args.out, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except QslabError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
