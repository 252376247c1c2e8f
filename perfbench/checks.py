"""Output checks for every benchmark operation.

Each check reads the CSV files a qslab subcommand wrote and compares them
against a computation made here with numpy/scipy, or against a property the
method must have.  A check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np
from scipy.linalg import expm


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def close(got, want, rel, abs_=0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_


def read_csv(path):
    """('#'-prefixed metadata dict, list of row dicts) of a qslab CSV."""
    meta, body = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(" = ")
                meta[key] = value
            else:
                body.append(line)
    return meta, list(csv.DictReader(body))


def digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# deterministic oracles

def spectral(out, model):
    """lambda0 and gamma against the model's reference values; alpha and
    eta residuals recomputed from the CSV values with the written matrix."""
    _, rows = read_csv(os.path.join(out, "spectral.csv"))
    scalars = {r["object"]: float(r["value"]) for r in rows if r["index"] == ""}
    alpha = np.array([float(r["value"]) for r in rows if r["object"] == "alpha"])
    eta = np.array([float(r["value"]) for r in rows if r["object"] == "eta"])
    lam0, gamma = scalars["lambda0"], scalars["gamma"]
    require(close(lam0, model.lambda0, 1e-8, 1e-13),
            f"lambda0 {lam0!r} != reference {model.lambda0!r}")
    require(close(gamma, model.gamma, 1e-8, 1e-13),
            f"gamma {gamma!r} != reference {model.gamma!r}")
    L = model.L
    scale = max(1.0, np.abs(L).max())
    res_a = np.abs(alpha @ L + lam0 * alpha).max()
    res_e = np.abs(L @ eta + lam0 * eta).max()
    require(max(res_a, res_e) <= 1e-9 * scale,
            f"eigen residuals alpha {res_a:.3g}, eta {res_e:.3g}")
    require(np.all(alpha >= 0) and abs(alpha.sum() - 1.0) <= 1e-12,
            "alpha is not a probability vector")
    require(abs(alpha @ eta - 1.0) <= 1e-10, "alpha(eta) != 1")


def certify(out, model):
    """C = 2 worst_ratio; the t = 0 ratio recomputed from alpha and eta."""
    meta, rows = read_csv(os.path.join(out, "certify.csv"))
    C, worst = float(meta["C"]), float(meta["worst_ratio"])
    ts = np.array([float(r["t"]) for r in rows])
    ratios = np.array([float(r["ratio"]) for r in rows])
    require(close(C, 2.0 * worst, 1e-15), f"C {C!r} != 2 x worst_ratio {worst!r}")
    require(worst == ratios.max(), "worst_ratio is not the profile maximum")
    require(float(meta["argmax_t"]) == ts[np.argmax(ratios)], "argmax_t mismatch")
    require(ts[0] == 0.0 and np.all(np.diff(ts) > 0), "grid must start at 0 and increase")
    require(ts[-1] >= 0.95 * 5.0 / float(meta["gamma"]), "grid stops short of 5/gamma")
    _, alpha, eta = model.eigen
    n = len(alpha)
    ratio0 = np.abs(np.eye(n) - np.outer(eta, alpha)).sum(axis=1).max()
    require(close(ratios[0], ratio0, 1e-8), f"t=0 ratio {ratios[0]!r} != {ratio0!r}")


def qprocess(out, model):
    """Conditioned-vs-Q marginal gap recomputed with scipy's expm and the
    intertwining mu_eta exp(t L_Q) = e^{lambda0 t} (mu exp(tL)) eta / mu(eta)."""
    _, rows = read_csv(os.path.join(out, "qprocess.csv"))
    (r,) = rows
    t, T = float(r["t"]), float(r["T"])
    lam0, _, eta = model.eigen
    at_t = model.mu @ expm(t * model.L)
    surv = expm((T - t) * model.L) @ np.ones(len(eta))
    cond = at_t * surv / (at_t @ surv)
    qm = np.exp(lam0 * t) * at_t * eta / (model.mu @ eta)
    gap = 0.5 * np.abs(cond - qm).sum()
    require(close(float(r["tv_gap"]), gap, 1e-6, 1e-12),
            f"tv_gap {r['tv_gap']} != recomputed {gap!r}")
    require(float(r["tv_gap_sum"]) == 2.0 * float(r["tv_gap"]), "tv_gap_sum != 2 tv_gap")
    require((r["threshold_ok"] == "true") == (T >= float(r["threshold_T"])),
            "threshold_ok disagrees with threshold_T")


def moments(out, model=None):
    """Moments of the Q-process: survival 1, m_0 = 1, Jensen inequalities."""
    meta, rows = read_csv(os.path.join(out, "moments.csv"))
    kmax = int(meta["kmax"])
    by_t = {}
    for r in rows:
        by_t.setdefault(float(r["t"]), {})[int(r["k"])] = r
    require(len(by_t) >= 1, "no moment rows")
    for t, ks in by_t.items():
        require(sorted(ks) == list(range(kmax + 1)), f"moment orders missing at t={t}")
        surv = float(ks[0]["survival"])
        require(abs(surv - 1.0) <= 1e-8, f"Q-process survival {surv!r} != 1 at t={t}")
        m = np.array([float(ks[k]["m_k"]) for k in range(kmax + 1)])
        cm = np.array([float(ks[k]["conditional_m_k"]) for k in range(kmax + 1)])
        require(np.allclose(cm, m / surv, rtol=1e-12, atol=0), "conditional != m / survival")
        require(abs(m[0] - 1.0) <= 1e-8, "m_0 != 1")
        if kmax >= 2:
            require(m[2] >= m[1] ** 2 * (1 - 1e-9), f"m_2 < m_1^2 at t={t}")
        if kmax >= 4:
            require(m[4] >= m[2] ** 2 * (1 - 1e-9), f"m_4 < m_2^2 at t={t}")


def charfun(out, model=None):
    """Gaussian-limit gap within its tolerance; reported fields consistent."""
    meta, rows = read_csv(os.path.join(out, "charfun.csv"))
    s2 = float(meta["sigma2"])
    require(len(rows) >= 1, "no charfun rows")
    for r in rows:
        w = float(r["omega"])
        cf = complex(float(r["re"]), float(r["im"]))
        lim = math.exp(-s2 * w * w / 2.0)
        require(abs(cf) <= 1.0 + 1e-9, f"|charfun| > 1 at omega={w}")
        require(close(float(r["gauss_limit"]), lim, 1e-14), "gauss_limit mismatch")
        require(close(float(r["abs_gap"]), abs(cf - lim), 1e-12, 1e-15), "abs_gap mismatch")
        require(float(r["abs_gap"]) <= 0.05, f"abs_gap {r['abs_gap']} > 0.05 at omega={w}")


def charfun_swap(out, model):
    """Uniform killing leaves the conditioned path law unchanged, so the
    conditional charfun equals the unkilled swap chain's, computed here."""
    _, rows = read_csv(os.path.join(out, "charfun.csv"))
    G = model.L + model.lambda0 * np.eye(2)
    for r in rows:
        t, wp = float(r["t"]), float(r["omega"]) / math.sqrt(float(r["t"]))
        u = expm(t * (G.T + 1j * wp * np.diag(model.f))) @ model.mu.astype(complex)
        got = complex(float(r["re"]), float(r["im"]))
        require(abs(got - u.sum()) <= 1e-8, f"charfun {got} != swap chain {u.sum()}")


def variance(out, model=None):
    """|sigma2 - quadrature| <= error_bound <= 1e-8."""
    _, (r,) = read_csv(os.path.join(out, "variance.csv"))
    s2, quad, bound = float(r["sigma2"]), float(r["quadrature"]), float(r["error_bound"])
    require(s2 > 0, "sigma2 must be positive")
    require(abs(s2 - quad) <= bound, f"|sigma2 - quadrature| = {abs(s2 - quad):.3g} > bound {bound:.3g}")
    require(bound <= 1e-8, f"error_bound {bound:.3g} > 1e-8")
    require(float(r["abs_diff"]) == abs(s2 - quad), "abs_diff mismatch")


def quadrature_steps(out) -> int:
    _, (r,) = read_csv(os.path.join(out, "variance.csv"))
    return round(float(r["horizon"]) / float(r["step"]))


# ---------------------------------------------------------------------------
# Monte Carlo

def _normal_cdf(x):
    return 0.5 * np.vectorize(math.erfc)(-np.asarray(x) / math.sqrt(2.0))


def read_samples(path) -> np.ndarray:
    with open(path) as fh:
        return np.array(fh.read().split("\n", 1)[1].split(), dtype=float)


def clt_qprocess(out, t, n, sigma2, d_max):
    """Q-process CLT sample: every replica kept, sigma2 as known in closed
    form, Kolmogorov distance recomputed from the dumped samples."""
    meta, (r,) = read_csv(os.path.join(out, "clt.csv"))
    require(r["method"] == "qprocess", f"method {r['method']} != qprocess")
    require(int(r["n_eff"]) == n == int(meta["n_requested"]), "replicas lost")
    require(close(float(r["sigma2"]), sigma2, 1e-12), f"sigma2 {r['sigma2']} != {sigma2}")
    s = read_samples(os.path.join(out, "clt_samples.txt"))
    require(len(s) == n and np.all(np.diff(s) >= 0), "samples missing or unsorted")
    F = _normal_cdf(s / math.sqrt(sigma2))
    i = np.arange(n)
    d = max((F - i / n).max(), ((i + 1) / n - F).max())
    require(close(float(r["d_kolm"]), d, 1e-9, 1e-12), f"d_kolm {r['d_kolm']} != {d!r}")
    require(d_max is None or d <= d_max, f"d_kolm {d:.4g} > {d_max} at t={t}")


def clt_rejection(out, model, sds=4.0):
    """Kept fraction within `sds` binomial standard deviations of the exact
    survival probability mu exp(tL) 1."""
    meta, (r,) = read_csv(os.path.join(out, "clt.csv"))
    require(r["method"] == "rejection", f"method {r['method']} != rejection")
    n, kept, t = int(meta["n_requested"]), int(r["n_eff"]), float(r["t"])
    p = float(model.mu @ expm(t * model.L) @ np.ones(len(model.mu)))
    sd = math.sqrt(n * p * (1 - p))
    require(abs(kept - n * p) <= sds * sd + 1e-9,
            f"kept {kept} of {n}, expected {n * p:.1f} +- {sds * sd:.1f}")


def replicas(out) -> tuple:
    """(n_eff, n_requested) from clt.csv."""
    meta, (r,) = read_csv(os.path.join(out, "clt.csv"))
    return int(r["n_eff"]), int(meta["n_requested"])


def pipeline(out, model):
    """Every report `qslab all` writes, against the same references as the
    single-subcommand checks, plus the Monte Carlo cross-checks."""
    spectral(out, model)
    certify(out, model)
    qprocess(out, model)
    variance(out, model)
    moments(out, model)
    charfun(out, model)
    clt_rejection(out, model)
    _, (v,) = read_csv(os.path.join(out, "variance.csv"))
    _, (c,) = read_csv(os.path.join(out, "clt.csv"))
    require(close(float(c["sigma2"]), float(v["sigma2"]), 1e-12), "clt sigma2 != variance sigma2")
    meta, rows = read_csv(os.path.join(out, "qed.csv"))
    require(len(rows) == 3, "qed needs three rows")
    for q in rows:
        require(float(q["mean_square"]) > 0 and float(q["stderr"]) > 0, "qed row not positive")
    rate = float(meta["fitted_rate"])
    require(-1.3 <= rate <= -0.7, f"mean-square decay rate {rate:.3g} is not ~ -1")
