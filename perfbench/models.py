"""Seeded benchmark inputs, written as qslab model YAML.

Everything here is built with numpy alone, never with qslab, so that the
reference values the checks compare against are independent of the program
under test.  Floats are written with ``repr`` (shortest round-trip form), so
the matrix the program parses is bit-identical to the one kept here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

# Sizes keep a round near 2 s, so that a 30-s run holds about ten rounds.
LADDER_N = 150            # spectral / certify / qprocess / moments / charfun ladder
VARIANCE_LADDER_N = 35    # quadrature steps grow like n^2 (gamma ~ 1/n^2)
DENSE_N = 120             # dense pipeline chain
KILL_RATE = 20.0          # uniform killing of the two-state swap chain


@dataclass(frozen=True)
class Model:
    """A generated model file and the numbers it was written from."""

    path: str
    L: np.ndarray
    mu: np.ndarray
    f: np.ndarray
    lambda0: Optional[float] = None   # reference decay rate, when known
    gamma: Optional[float] = None     # reference spectral gap, when known

    @cached_property
    def eigen(self):
        """(lambda0, alpha, eta) from numpy's dense eigensolver, normalised
        as qslab documents them: sum(alpha) = 1, alpha(eta) = 1."""
        w, vr = np.linalg.eig(self.L)
        wl, vl = np.linalg.eig(self.L.T)
        i, j = np.argmax(w.real), np.argmax(wl.real)
        alpha = np.abs(vl[:, j].real)
        alpha /= alpha.sum()
        eta = np.abs(vr[:, i].real)
        eta /= alpha @ eta
        return -float(w[i].real), alpha, eta


def yaml_float(v) -> str:
    """A float literal that PyYAML's YAML 1.1 resolver reads back as the same
    double (it needs a '.' in the mantissa and a signed exponent)."""
    s = repr(float(v))
    if "e" in s:
        mant, exp = s.split("e")
        if "." not in mant:
            mant += ".0"
        if exp[0] not in "+-":
            exp = "+" + exp
        s = f"{mant}e{exp}"
    return s


def _flow(vec) -> str:
    return "[" + ", ".join(yaml_float(v) for v in vec) + "]"


def ladder_generator(n: int) -> np.ndarray:
    """Unit-rate birth-death ladder on {1..n}, killed at rate 1 from state 1."""
    L = np.zeros((n, n))
    idx = np.arange(n - 1)
    L[idx, idx + 1] = 1.0
    L[idx + 1, idx] = 1.0
    np.fill_diagonal(L, -2.0)
    L[n - 1, n - 1] = -1.0
    return L


def ladder_spectrum(n: int, j: int) -> float:
    """j-th smallest eigenvalue of -L for the unit ladder (j = 1, 2, ...)."""
    return 2.0 - 2.0 * np.cos((2 * j - 1) * np.pi / (2 * n + 1))


def write_ladder(path, n: int, rng, observable=None) -> Model:
    """Ladder written in birth_death form with a seeded initial law and,
    unless one is given, a seeded observable; lambda0 and gamma from the
    closed-form spectrum."""
    mu = rng.uniform(0.5, 1.5, n)
    mu /= mu.sum()
    f = rng.uniform(-1.0, 1.0, n) if observable is None else np.asarray(observable, float)
    with open(path, "w") as fh:
        fh.write(f"name: ladder-{n}\n")
        fh.write("birth_death:\n")
        fh.write(f"  n: {n}\n")
        fh.write(f"  birth: {_flow([1.0] * (n - 1) + [0.0])}\n")
        fh.write(f"  death: {_flow([1.0] * n)}\n")
        fh.write(f"mu: {_flow(mu)}\n")
        fh.write(f"observable: {_flow(f)}\n")
    lam0, lam1 = ladder_spectrum(n, 1), ladder_spectrum(n, 2)
    return Model(path=str(path), L=ladder_generator(n), mu=mu, f=f,
                 lambda0=lam0, gamma=lam1 - lam0)


def write_dense(path, n: int, rng) -> Model:
    """Dense chain with uniform rates and one killed state, time-normalised
    so that its spectral gap is 1 (the construction of the test suite's
    random chains); lambda0 and gamma from numpy's eigvals."""
    A = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(A, 0.0)
    kappa = np.zeros(n)
    kappa[rng.integers(0, n)] = rng.uniform(0.5, 1.5)
    L = A.copy()
    np.fill_diagonal(L, -(A.sum(axis=1) + kappa))
    rates = np.sort(-np.linalg.eigvals(L).real)
    gamma = rates[1] - rates[0]
    L = L / gamma
    with open(path, "w") as fh:
        fh.write(f"name: dense-{n}\n")
        fh.write("generator:\n")
        for row in L:
            fh.write(f"  - {_flow(row)}\n")
    return Model(path=str(path), L=L, mu=np.full(n, 1.0 / n), f=np.eye(n)[0],
                 lambda0=rates[0] / gamma, gamma=1.0)


def write_kill20(path) -> Model:
    """Two states, swap rate 1, killing KILL_RATE at both: lambda0 = 20,
    gamma = 2.  The same for every seed."""
    L = np.array([[-1.0 - KILL_RATE, 1.0], [1.0, -1.0 - KILL_RATE]])
    f = np.array([1.0, -1.0])
    with open(path, "w") as fh:
        fh.write("name: swap-kill20\n")
        fh.write("generator:\n")
        for row in L:
            fh.write(f"  - {_flow(row)}\n")
        fh.write(f"observable: {_flow(f)}\n")
    return Model(path=str(path), L=L, mu=np.full(2, 0.5), f=f,
                 lambda0=KILL_RATE, gamma=2.0)
