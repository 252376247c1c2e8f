"""Finite absorbed Markov chains: construction, validation, and model files.

A chain lives on states ``E = {0..n-1}`` plus an implicit cemetery reached
at rate ``kappa(x) = -sum_y L(x, y)``.  The matrix ``L`` is the generator of
the killed semigroup ``P_t = exp(t L)``: nonnegative off-diagonal rates,
nonpositive diagonal, row sums <= 0 with at least one strict inequality,
and a strongly connected transition graph on E.

load_model_config reads a model file once and keeps the sha256 of the bytes
it parsed as ModelBundle.source, so a pipe is hashed as it was parsed.
"""

from __future__ import annotations

import hashlib
import io
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import yaml
from scipy.linalg import eig, eigh
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import (
    BudgetExceeded,
    InvalidRates,
    NegativeOffDiagonal,
    NoKilling,
    OverflowGuard,
    ParseError,
    PositiveRowSum,
    Reducible,
    ValidationError,
)

_ROWSUM_TOL = 1e-12
_SQRT_MAX = np.sqrt(np.finfo(float).max)  # the largest rate whose square is finite
# the largest birth-death chain a run builds: certify took 0.44 s at n = 1000
# and 2.7 s at n = 2000 (cost ~ n^3, peak RSS 383 MB), so about 22 s and
# 1.5 GB at this n
BIRTH_DEATH_MAX_STATES = 4000
# the largest model file read: a generator of that many states at 32 bytes an entry
MODEL_FILE_MAX_BYTES = 32 * BIRTH_DEATH_MAX_STATES ** 2


@dataclass(frozen=True, eq=False)
class AbsorbedChain:
    """Validated sub-Markov generator with killing rates.

    Attributes
    ----------
    sub_generator : ndarray, shape (n, n)
        The matrix L (units 1/time), read-only.
    killing : ndarray, shape (n,)
        kappa(x) = -sum_y L(x, y) >= 0.
    """

    sub_generator: np.ndarray
    killing: np.ndarray

    @property
    def n(self) -> int:
        return self.sub_generator.shape[0]

    def __post_init__(self):
        self.sub_generator.setflags(write=False)
        self.killing.setflags(write=False)

    @cached_property
    def log_reversible_measure(self):
        """log pi of a measure with pi_x L(x, y) = pi_y L(y, x) on every edge,
        or None when L is not reversible.

        The support must be symmetric; pi is built along a breadth-first
        spanning tree and then checked on every edge, so a cycle that breaks
        Kolmogorov's criterion fails.  The check allows the rounding of the
        logs summed along two tree paths, 4 n eps (1 + max |log pi|)."""
        L = self.sub_generator
        n = self.n
        edges = L > 0
        np.fill_diagonal(edges, False)
        if not np.array_equal(edges, edges.T):
            return None
        order, parent = breadth_first_order(edges, 0, directed=False,
                                            return_predecessors=True)
        log_pi = np.zeros(n)
        for y in order[1:]:
            x = parent[y]
            log_pi[y] = log_pi[x] + np.log(L[x, y] / L[y, x])
        x, y = np.nonzero(edges)
        balance = log_pi[x] - log_pi[y] + np.log(L[x, y] / L[y, x])
        tol = 4.0 * n * np.finfo(float).eps * (1.0 + np.abs(log_pi).max())
        if balance.size and np.abs(balance).max() > tol:
            return None
        return log_pi - 0.5 * (log_pi.max() + log_pi.min())

    @property
    def reversible(self) -> bool:
        return self.log_reversible_measure is not None

    @cached_property
    def symmetric_basis(self):
        """(w, U, h) with L = diag(h)^{-1} U diag(w) U^T diag(h) for a
        reversible chain, None for any other; read-only.

        h = sqrt(pi) makes S = diag(h) L diag(h)^{-1} symmetric, with S(x, y)
        = sqrt(L(x, y) L(y, x)) off the diagonal, and (w, U) = eigh(S): w is
        real and ascending, U orthogonal.  A pi whose square root does not
        fit in normal doubles raises OverflowGuard, and so does an off-diagonal
        rate above sqrt(DBL_MAX), where L(x, y) L(y, x) could overflow."""
        log_pi = self.log_reversible_measure
        if log_pi is None:
            return None
        if 0.5 * np.abs(log_pi).max() > -np.log(np.finfo(float).tiny):
            raise OverflowGuard("the reversible measure's square root spans more "
                                "decades than double precision holds")
        L = self.sub_generator
        if L.max() > _SQRT_MAX:  # the largest off-diagonal rate: the diagonal is negative
            raise OverflowGuard(f"a rate above sqrt(DBL_MAX) = {_SQRT_MAX:.3g} overflows "
                                "the products of the symmetric form")
        with np.errstate(over="ignore"):  # only on the diagonal, which is replaced
            S = np.sqrt(L * L.T)
        # eigh's rounding scales with ||S - cI||, least at c = mean diag L
        c = np.trace(L) / self.n
        np.fill_diagonal(S, np.diag(L) - c)
        w, U = eigh(S)
        w += c
        h = np.exp(0.5 * log_pi)
        for arr in (w, U, h):
            arr.setflags(write=False)
        return w, U, h

    @cached_property
    def eigen(self):
        """(w, vl, vr), read-only: L vr = vr diag(w) and vl^H L = diag(w) vl^H.

        A reversible chain reads vr = U / h and vl = U h off symmetric_basis,
        so w is real and ascending and vl^T vr = I: dense eig loses the
        spectrum of such chains when pi spans many decades (they are far from
        normal).  Any other L goes through scipy.linalg.eig(L, left=True,
        right=True)."""
        basis = self.symmetric_basis
        if basis is not None:
            w, U, h = basis
            vl, vr = U * h[:, None], U / h[:, None]
        else:
            w, vl, vr = eig(self.sub_generator, left=True, right=True)
        for arr in (w, vl, vr):
            arr.setflags(write=False)
        return w, vl, vr

    @cached_property
    def shifted(self):
        """(L - s I, s), read-only, with s = max Re w of eigen, which is
        -lambda0 of solve_spectral bit for bit.  Conditioned ratios do not
        see the shift, and e^{t(L - s I)} stays of order one where e^{tL}
        underflows."""
        s = float(self.eigen[0].real.max())
        A = self.sub_generator - s * np.eye(self.n)
        A.setflags(write=False)
        return A, s


def validate_weight(psi1) -> np.ndarray:
    """The weight psi1 as a finite vector, >= 1 entrywise."""
    psi1 = np.asarray(psi1, dtype=float)
    if psi1.ndim != 1 or not np.all(np.isfinite(psi1)):
        raise ValidationError("psi1 must be a finite vector")
    if np.any(psi1 < 1.0 - 1e-12):
        raise ValidationError("psi1 must be >= 1 entrywise")
    return psi1


def validate_initial_law(mu, n: int) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise ValidationError(f"initial law has shape {mu.shape}, expected ({n},)")
    if np.any(mu < -1e-15) or not np.all(np.isfinite(mu)):
        raise ValidationError("initial law must be nonnegative and finite")
    if abs(mu.sum() - 1.0) > 1e-12:
        raise ValidationError(f"initial law sums to {mu.sum()!r}, expected 1")
    return np.clip(mu, 0.0, None)


def validate_chain(raw_matrix) -> AbsorbedChain:
    """Check the generator invariants and return an AbsorbedChain.

    Raises NegativeOffDiagonal, PositiveRowSum, NoKilling or Reducible with
    a diagnostic naming the first offending entry.
    """
    try:
        L = np.array(raw_matrix, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"generator is not a numeric matrix: {exc}") from exc
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValidationError(f"generator must be square, got shape {L.shape}")
    if not np.all(np.isfinite(L)):
        raise ValidationError("generator contains non-finite entries")
    n = L.shape[0]
    off = L.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0):
        i, j = np.argwhere(off < 0)[0]
        raise NegativeOffDiagonal(f"L[{i},{j}] = {L[i, j]} < 0")
    if np.any(np.diag(L) > _ROWSUM_TOL):
        i = int(np.argmax(np.diag(L)))
        raise ValidationError(f"diagonal entry L[{i},{i}] = {L[i, i]} > 0")
    rowsum = L.sum(axis=1)
    scale = max(1.0, np.abs(L).max())
    if np.any(rowsum > _ROWSUM_TOL * scale):
        i = int(np.argmax(rowsum))
        raise PositiveRowSum(f"row {i} sums to {rowsum[i]} > 0")
    kappa = np.clip(-rowsum, 0.0, None)
    if np.all(kappa <= _ROWSUM_TOL * scale):
        raise NoKilling("all row sums are zero: the chain is conservative")
    if n > 1:
        ncomp, _ = connected_components(off > 0, directed=True, connection="strong")
        if ncomp != 1:
            raise Reducible(f"transition graph splits into {ncomp} strong components")
    return AbsorbedChain(sub_generator=L, killing=kappa)


def build_birth_death(n: int, birth, death) -> AbsorbedChain:
    """Tridiagonal chain on {1..n}: up-rates b_i, down-rates d_i, with the
    death rate of state 1 acting as the killing rate (absorption into 0).
    More than BIRTH_DEATH_MAX_STATES states raise BudgetExceeded before the
    n x n matrix is allocated."""
    try:
        birth = np.asarray(birth, dtype=float)
        death = np.asarray(death, dtype=float)
    except (ValueError, TypeError) as exc:
        raise InvalidRates(f"rates are not numeric: {exc}") from exc
    if n < 1 or birth.shape != (n,) or death.shape != (n,):
        raise InvalidRates(f"need n >= 1 and n birth and death rates each (n = {n})")
    if np.any(birth < 0) or np.any(death < 0):
        raise InvalidRates("rates must be nonnegative")
    if death[0] <= 0:
        raise InvalidRates("d_1 must be positive (it is the killing rate)")
    if n > 1 and birth[-1] != 0:
        raise InvalidRates("b_n must vanish (no escape above the top state)")
    if n > BIRTH_DEATH_MAX_STATES:
        raise BudgetExceeded(f"a birth-death chain of n = {n} states needs {8.0 * n * n:.3g} "
                             f"bytes per dense n x n array; at most "
                             f"{BIRTH_DEATH_MAX_STATES} states are built")
    L = np.zeros((n, n))
    for i in range(n - 1):
        L[i, i + 1] = birth[i]
    for i in range(1, n):
        L[i, i - 1] = death[i]
    np.fill_diagonal(L, -(birth + death))
    return validate_chain(L)


# ---------------------------------------------------------------------------
# canonical fixtures (analytic ground truth shared across the test suite)

def m2sym() -> AbsorbedChain:
    """Two symmetric states, unit swap rate, unit killing each."""
    return validate_chain([[-2.0, 1.0], [1.0, -2.0]])


def m2asym() -> AbsorbedChain:
    """Two-state chain with asymmetric rates; decay rate 3 - sqrt(2)."""
    return validate_chain([[-3.0, 1.0], [2.0, -3.0]])


def bd5() -> AbsorbedChain:
    """Five-state birth-death chain, all rates 1, killed from state 1."""
    return build_birth_death(5, [1.0, 1.0, 1.0, 1.0, 0.0], [1.0] * 5)


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """A chain plus the optional pieces a run needs: weight psi1, initial
    law mu, and the bounded observable f; source names the model for the
    manifest, builtin:<name> or sha256:<hex digest of the file's bytes>."""

    chain: AbsorbedChain
    psi1: np.ndarray
    mu: np.ndarray
    f: np.ndarray
    source: str


# builtin name -> (chain builder, observable); psi1 = 1 and mu uniform
BUILTIN_MODELS = {"m2sym": (m2sym, [1.0, -1.0]), "m2asym": (m2asym, [1.0, -1.0]),
                  "bd5": (bd5, [1.0, 0.0, 0.0, 0.0, 0.0])}

# libyaml's parser when PyYAML was built with it: the same safe constructor,
# so the same Python objects, at several times the speed on large matrices
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# plain scalars that SafeLoader reads as the int() or float() of the text
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)").fullmatch
_FLOAT = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?").fullmatch
# the schema's deepest collection is a generator row or a birth-death rate list
MAX_NESTING = 3


def _event_document(fh):
    """fh's one document built from _YAML_LOADER's parse events, or None where
    yaml.load might differ: a tag, anchor or alias, not one document, a key
    that is a collection, a YAMLError, a plain scalar outside _INT, _FLOAT and str.
    A collection nested deeper than MAX_NESTING raises ParseError, also in a
    document left to yaml.load, whose parser slows with the square of the depth."""
    resolve, str_tag = yaml.resolver.Resolver().resolve, "tag:yaml.org,2002:str"
    stack = [[]]  # the documents, then the open collections (a mapping as keys and values)
    exact = True  # no event that yaml.load might read otherwise
    try:
        for ev in yaml.parse(fh, Loader=_YAML_LOADER):
            kind = type(ev)
            if kind is yaml.ScalarEvent:
                v = ev.value
                if ev.anchor is not None or ev.tag is not None:
                    exact = False
                elif ev.implicit[0]:  # plain; quoted and block scalars are str
                    if _FLOAT(v):
                        v = float(v)
                    elif _INT(v):
                        v = int(v)
                    elif resolve(yaml.ScalarNode, v, (True, False)) != str_tag:
                        exact = False
                stack[-1].append(v)
            elif kind is yaml.SequenceStartEvent or kind is yaml.MappingStartEvent:
                if len(stack) > MAX_NESTING:
                    raise ParseError(f"collections nest deeper than {MAX_NESTING} in {fh.name}")
                exact = exact and ev.anchor is None and ev.tag is None
                stack[-1].append([])
                stack.append(stack[-1][-1])
            elif kind is yaml.SequenceEndEvent:
                stack.pop()
            elif kind is yaml.MappingEndEvent:  # a later duplicate key wins, as in SafeLoader
                flat = stack.pop()
                try:
                    stack[-1][-1] = dict(zip(flat[::2], flat[1::2]))
                except TypeError:  # a collection as a key
                    exact = False
            elif kind is yaml.AliasEvent:
                exact = False
    except yaml.YAMLError:
        return None
    return stack[0][0] if exact and len(stack[0]) == 1 else None


def load_model_config(path) -> ModelBundle:
    """Read a YAML model file and return a fully validated bundle.

    Schema (all numbers decimal): exactly one of ``generator`` (row-major
    matrix) or ``birth_death: {n, birth, death}`` with an integer n >= 1;
    optional ``name``, ``states`` (one label per state, counted, neither
    kept), ``psi1``, ``mu``, ``observable``.  Missing psi1 defaults to the
    constant 1, missing mu to uniform, missing observable to the indicator
    of the first state.  A file past MODEL_FILE_MAX_BYTES raises BudgetExceeded.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read(MODEL_FILE_MAX_BYTES + 1)
    except OSError as exc:
        raise ParseError(f"cannot read model file: {exc}") from exc
    if len(data) > MODEL_FILE_MAX_BYTES:
        raise BudgetExceeded(f"model file {path} exceeds {MODEL_FILE_MAX_BYTES} bytes")
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    fh.buffer.name = str(path)  # the file name YAML's messages give
    try:
        raw = _event_document(fh)
        if raw is None:
            fh.seek(0)
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed YAML in {path}: {exc}") from exc
    except ValueError as exc:  # text that is not UTF-8, an int past Python's digit limit
        raise ParseError(f"unreadable model file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"model file {path} must contain a mapping")
    known = {"states", "generator", "birth_death", "psi1", "mu", "observable", "name"}
    unknown = set(raw) - known
    if unknown:
        raise ParseError(f"unknown keys in model file: {sorted(unknown)}")
    if not isinstance(raw.get("states", []), list):
        raise ParseError("field 'states' must be a list of labels")
    has_gen = "generator" in raw
    has_bd = "birth_death" in raw
    if has_gen == has_bd:
        raise ParseError("model file needs exactly one of 'generator' or 'birth_death'")
    if has_gen:
        chain = validate_chain(raw["generator"])
    else:
        bd = raw["birth_death"]
        if not isinstance(bd, dict) or set(bd) - {"n", "birth", "death"}:
            raise ParseError("birth_death block must hold exactly {n, birth, death}")
        try:
            n, birth, death = bd["n"], bd["birth"], bd["death"]
        except KeyError as exc:
            raise ParseError(f"birth_death block missing field {exc}") from exc
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ParseError(f"birth_death n must be a positive integer, got {n!r}")
        chain = build_birth_death(n, birth, death)
    n = chain.n
    if "states" in raw and len(raw["states"]) != n:
        raise ValidationError("number of state labels does not match the matrix")

    def _vec(key, default):
        if key not in raw:
            return default
        try:
            v = np.asarray(raw[key], dtype=float)
        except (ValueError, TypeError) as exc:
            raise ParseError(f"field '{key}' is not numeric: {exc}") from exc
        if v.shape != (n,):
            raise ParseError(f"field '{key}' must be a length-{n} vector")
        return v

    psi1 = validate_weight(_vec("psi1", np.ones(n)))
    mu = validate_initial_law(_vec("mu", np.full(n, 1.0 / n)), n)
    f = _vec("observable", np.eye(n)[0])
    if not np.max(np.abs(f)) <= 1.0 + 1e-12:  # nan compares false
        raise ValidationError("observable must be finite with max|f| <= 1")
    source = "sha256:" + hashlib.sha256(data).hexdigest()
    return ModelBundle(chain=chain, psi1=psi1, mu=mu, f=f, source=source)


def resolve_model(spec: str) -> ModelBundle:
    """Accept either a builtin fixture name or a path to a YAML file."""
    name = spec.lower()
    if name not in BUILTIN_MODELS:
        return load_model_config(spec)
    build, f = BUILTIN_MODELS[name]
    chain = build()
    n = chain.n
    return ModelBundle(chain=chain, psi1=np.ones(n), mu=np.full(n, 1.0 / n), f=np.array(f),
                       source=f"builtin:{name}")
