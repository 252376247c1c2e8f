"""Checks of the paper's explicit bounds, which only the tests call: the
constant sequences D_k and C_k, the even- and odd-moment rates, the
uniform characteristic-function bound, Q-ergodicity and the gap rate,
plus the model writer the YAML tests round-trip through.  src/qslab holds
what a run computes; these functions compare it with the paper's
statements."""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import numpy as np
import yaml

from qslab.qprocess import conditional_vs_q_gap
from qslab.spectral import log_slope, semigroup
from qslab.variance_clt import K_MAX, _tilted_law, exact_conditional_moments, make_observable


def q_weights(qproc):
    """The Q-process's beta, its weight psi = psi1 / eta, natural for the
    Q-side ergodicity bounds, and c = min psi, psi's positive lower bound."""
    psi = qproc.psi1 / qproc.triple.eta
    return SimpleNamespace(beta=qproc.beta, psi=psi, c=float(psi.min()))


def constants(cert, weights, K: int = K_MAX):
    """(C_1, D, Ck) with D[k-1] = D_k and Ck[k-1] = C_k for k = 1..K, from
    the closed forms in exact rational arithmetic on the binary inputs
    (weights as q_weights gives them), rounded once to doubles:

    D_1 = max(C^2/c, C beta(psi)/(c^2 gamma)),
    D_k = (r^{k-1} or 1, whichever is larger) * D_1 with r = (C/gamma)(1 + beta(psi)/c),
    C_1 = 1/gamma + 1/gamma^2,  C_k = C_1/(k-1)! + C_1/(k-2)!  (k >= 2)."""
    C, g, c = Fraction(float(cert.C)), Fraction(float(cert.gamma)), Fraction(float(weights.c))
    bp = Fraction(float(weights.beta @ weights.psi))
    D1 = max(C * C / c, C * bp / (c * c * g))
    r = (C / g) * (1 + bp / c)
    C1 = 1 / g + 1 / (g * g)
    D = [max(r ** (k - 1), Fraction(1)) * D1 for k in range(1, K + 1)]
    Ck = [C1] + [C1 / factorial(k - 1) + C1 / factorial(k - 2) for k in range(2, K + 1)]
    return float(C1), np.array([float(d) for d in D]), np.array([float(v) for v in Ck])


def even_moment_bounds(cert, qproc, mu, k: int, t_grid) -> np.ndarray:
    """(2k)! D_k C_1 k/(k-1)! mu(psi)/t at each t, with mu(psi) for the
    Q-process's psi: the explicit bound on the even-moment error."""
    weights = q_weights(qproc)
    C1, D, _ = constants(cert, weights, k)
    mu_psi = float(np.asarray(mu, dtype=float) @ weights.psi)
    return (factorial(2 * k) * D[k - 1] * C1 * k / factorial(k - 1) * mu_psi
            / np.asarray(t_grid, dtype=float))


def even_moment_errors(qproc, mu, f, k: int, t_grid, sigma2: float):
    """(errors, fitted rate): |m_{2k}(t)/t^k - (2k)! sigma^{2k} / (k! 2^k)|
    for the Q-process at each t of the grid, and the slope of their log
    against log t.  f must already be centred (the theorems are stated for
    beta(f) = 0)."""
    t_grid = np.asarray(t_grid, dtype=float)
    limit = factorial(2 * k) * sigma2 ** k / (factorial(k) * 2 ** k)
    mvs = exact_conditional_moments(qproc, mu, f, 2 * k, t_grid)
    errs = np.array([abs(mv.m[2 * k] / t ** k - limit) for mv, t in zip(mvs, t_grid)])
    return errs, log_slope(np.log(t_grid), errs)


def odd_moment_decay(qproc, mu, f, k: int, t_grid):
    """(|m_{2k+1}(t)| / t^{k+1/2} at each t, the slope of its log against
    log t): the theorem fixes only the 1/sqrt(t) speed, not the constant."""
    t_grid = np.asarray(t_grid, dtype=float)
    mvs = exact_conditional_moments(qproc, mu, f, 2 * k + 1, t_grid)
    errs = np.array([abs(mv.m[2 * k + 1] / t ** (k + 0.5)) for mv, t in zip(mvs, t_grid)])
    return errs, log_slope(np.log(t_grid), errs)


def sup_over_weight_ball(d: np.ndarray, psi: np.ndarray) -> float:
    """sup over real |g| <= psi of |sum_x g(x) d(x)| for complex d, exactly.

    As |z| = max_theta Re(e^{-i theta} z), the sup is the max over theta of
    Re(e^{-i theta} S) with S = sum_x s psi d, s = sign(Re(e^{-i theta} d));
    s changes only at the breakpoints (arg d + pi/2) mod pi.  Flipping one sign
    per breakpoint in increasing order from s at theta = 0+ (sign of Re d, ties
    by Im d) visits every arc's S, so max |S| >= sup, and each S is the value
    of a feasible g, so max |S| <= sup."""
    s = np.sign(np.where(d.real != 0, d.real, d.imag))
    v = psi * s * d  # Re v > 0, or v on the positive imaginary axis
    v = v[np.argsort(np.angle(v))]  # angle = breakpoint - pi/2
    return float(np.abs(v.sum() - 2.0 * np.cumsum(v)).max())  # ends at -S(0+), theta = pi


def charfun_bound(qproc, cert, mu, f, omega: float, t_grid, sigma2: float):
    """(sup_gap, bound, conv_gap), one entry per t: sup_gap is the exact sup
    over ||g||_{L^inf(psi)} <= 1 of

        | E_mu^Q[e^{i omega S_t/sqrt(t)} g(X_t)] - beta(g) E_mu^Q[e^{i omega S_t/sqrt(t)}] |

    (f centred here, S_t its running integral), bound is
    C mu(psi) e^{-gamma t} + (C |omega|/sqrt(t)) (beta(psi) + C mu(psi)) / gamma
    with the certified constants, and conv_gap the distance of the weighted
    law to its Gaussian-limit target beta(g) e^{-sigma^2 omega^2 / 2}."""
    ft = make_observable(qproc, f).f_centered
    mu = np.asarray(mu, dtype=float)
    C, gamma, psi = cert.C, cert.gamma, q_weights(qproc).psi
    mu_psi, beta_psi = float(mu @ psi), float(qproc.beta @ psi)
    rows = []
    for t in t_grid:
        m = _tilted_law(qproc.q_generator, mu, ft, omega / np.sqrt(t), t)
        rows.append((sup_over_weight_ball(m - qproc.beta * m.sum(), psi),
                     C * mu_psi * np.exp(-gamma * t)
                     + (C * abs(omega) / np.sqrt(t)) * (beta_psi + C * mu_psi) / gamma,
                     sup_over_weight_ball(m - qproc.beta * np.exp(-sigma2 * omega ** 2 / 2.0),
                                          psi)))
    return np.array(rows).T


def q_ergodicity(qproc, t_grid):
    """(max_x ||delta_x exp(t L_Q) - beta||_psi / psi(x) at each t, the
    slope of its log against t)."""
    psi = q_weights(qproc).psi
    devs = np.array([(np.abs(semigroup(qproc, t, lead=qproc.beta)) @ psi / psi).max()
                     for t in t_grid])
    return devs, log_slope(t_grid, devs)


def fit_gap_rate(qproc, mu, t: float, dT_list, cert):
    """Sweep T - t under the run's certificate and regress log gap; returns
    (slope, reports)."""
    reports = [conditional_vs_q_gap(qproc, mu, t, t + dT, cert) for dT in dT_list]
    return log_slope(dT_list, [r.tv_gap for r in reports]), reports


def emit_model_config(bundle, path) -> None:
    """Write a bundle back to YAML; load_model_config of the file gives
    back its generator, psi1, mu and observable."""
    doc = {
        "generator": [[float(v) for v in row] for row in bundle.chain.sub_generator],
        "psi1": [float(v) for v in bundle.psi1],
        "mu": [float(v) for v in bundle.mu],
        "observable": [float(v) for v in bundle.f],
    }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
