"""Property tests of the command-line boundary: whatever numbers or strings
the options get, on the builtins or on drifted birth-death ladders (the
reversible chains far from normal), and whatever a model file holds, valid
or broken in one of the ways BREAKS names, `cli.main` ends in a documented
exit code, never raises, prints a coded diagnostic on failure, and writes
no undocumented `nan`."""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from qslab import cli
from qslab.montecarlo import MAX_REPLICAS
from qslab.spectral import MAX_GRID_POINTS
from qslab.variance_clt import K_MAX

_MAGNITUDES = st.floats(min_value=1e-3, max_value=1e3)
NUMBERS = st.one_of(
    _MAGNITUDES, _MAGNITUDES.map(lambda v: -v), st.just(0.0),
    st.sampled_from([math.inf, -math.inf, math.nan]),
).map(repr)
GARBAGE = st.sampled_from(["abc", "", " ", "1,,x", "0x1p3", "--", "1e400"])
SCALARS = st.one_of(NUMBERS, GARBAGE)
LISTS = st.one_of(st.lists(NUMBERS, max_size=3).map(",".join), st.just(","), GARBAGE)
# finite times far past every horizon the oracles and the sampler can serve
_HUGE = st.floats(min_value=1e10, max_value=1e300).map(repr)
TIMES = st.one_of(SCALARS, _HUGE)
TIME_LISTS = st.one_of(LISTS, st.lists(st.one_of(NUMBERS, _HUGE), min_size=1, max_size=3)
                       .map(",".join))


def _ints(low, high, ceiling):
    """Integer options, or a float or garbage string that argparse refuses,
    or a count past the option's ceiling (ceiling + 1, 2^63 - 1), which is
    refused before anything of its size is allocated."""
    return st.one_of(st.integers(low, high).map(str), NUMBERS, GARBAGE,
                     st.sampled_from([ceiling + 1, 2 ** 63 - 1]).map(str))


METHODS = st.sampled_from(["rejection", "qprocess"])
# (n, birth, death) of a ladder with constant rates: pi spans up to 10 decades
LADDERS = st.tuples(st.integers(2, 8), st.floats(0.2, 5.0), st.floats(0.2, 5.0))
# a ladder whose fourth entry is its observable's one value: a constant f
CONSTANT_LADDER = (4, 1.0, 2.0, 0.5)

OPTIONS = {
    "spectral": {},
    "certify": {"tmax": SCALARS, "tpoints": _ints(-1000, 1000, MAX_GRID_POINTS)},
    "qprocess": {"t": SCALARS, "T": TIMES},
    "variance": {},
    "moments": {"kmax": _ints(-2, 10, K_MAX), "times": TIME_LISTS},
    "charfun": {"omegas": LISTS, "times": TIME_LISTS},
    "clt": {"t": TIMES, "n": _ints(-5, 200, MAX_REPLICAS), "method": METHODS},
    "qed": {"times": TIME_LISTS, "n": _ints(-5, 200, MAX_REPLICAS), "method": METHODS},
    "all": {"n": _ints(-5, 200, MAX_REPLICAS)},
}
# clt.csv documents nan distance and gap_bound (constant observable, rejection),
# qed.csv a nan fitted_rate (fewer than two positive mean squares)
ALLOWED_NAN = {("clt.csv", "d_kolm"), ("clt.csv", "gap_bound"), ("qed.csv", "fitted_rate")}


@st.composite
def command_lines(draw):
    cmd = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [cmd, "--model", draw(st.one_of(st.sampled_from(["m2sym", "bd5"]), LADDERS,
                                           st.just(CONSTANT_LADDER)))]
    for name, values in OPTIONS[cmd].items():
        if draw(st.booleans()):
            argv.append(f"--{name}={draw(values)}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(-2, 2 ** 64 + 2))}")
    return argv


def _undocumented_nans(out):
    """(file, column or header key, line) of each nan that ALLOWED_NAN does
    not name, in the data rows and in the '# key = value' header lines."""
    found = []
    for path in sorted(out.glob("*.csv")):
        text = path.read_text().splitlines()
        for line in (l for l in text if l.startswith("#")):
            key, _, value = line[2:].partition(" = ")
            if "nan" in value.lower() and (path.name, key) not in ALLOWED_NAN:
                found.append((path.name, key, line))
        lines = [l for l in text if not l.startswith("#")]
        header = lines[0].split(",")
        for line in lines[1:]:
            for column, value in zip(header, line.split(",")):
                if "nan" in value.lower() and (path.name, column) not in ALLOWED_NAN:
                    found.append((path.name, column, line))
    return found


def _run(argv, out):
    """(exit code, stderr) of cli.main; a usage error's SystemExit is its code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_any_command_line_ends_in_a_documented_exit(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        argv = list(argv)  # hypothesis may replay the drawn example
        if isinstance(argv[2], tuple):
            n, birth, death, *level = argv[2]
            argv[2] = str(Path(tmp) / "ladder.yaml")
            Path(argv[2]).write_text(
                f"birth_death: {{n: {n}, birth: {[birth] * (n - 1) + [0.0]}, "
                f"death: {[death] * n}}}\n" + (f"observable: {level * n}\n" if level else ""))
        rc, err = _run(argv, out)
        assert rc in (0, 2, 3, 4), (argv, rc, err)
        if rc == 2:
            assert "error: " in err
        elif rc:
            assert re.search(r"^error: [a-z-]+: ", err, re.M), err
            assert not out.exists()
        else:
            assert _undocumented_nans(out) == []


# each breaks one rule of the model-file schema or of the chain's invariants
BREAKS = ("negative-rate", "positive-row-sum", "reducible", "non-numeric", "non-finite",
          "nan-observable", "wrong-length", "psi1-below-1", "mu-not-a-law", "unknown-key",
          "both-blocks", "no-block")
VECTORS = ("psi1", "mu", "observable")
# breaks of the file's bytes: text that is not UTF-8, a birth-death n of
# more digits than Python converts (4300), and a generator nested 10^5 deep
TEXT_BREAKS = {
    "not-utf8": lambda text: text.encode() + b"name: \xff\xfe\n",
    "huge-n": lambda text: re.sub(r"^  n: \d+$", "  n: " + "1" * 4301, text, flags=re.M).encode(),
    "deep": lambda text: re.sub(r"^generator:\n(?:[- ].*\n)*",
                                "generator: " + "[" * 10 ** 5 + "]" * 10 ** 5 + "\n",
                                text, flags=re.M).encode(),
}
_RATES = st.one_of(st.just(0.0), st.floats(0.01, 10.0))


@st.composite
def model_documents(draw, brk):
    """A model file's mapping on 2..4 states: a generator (random rates, some
    zero, plus a cycle through every state and killing at one state at
    least) or a birth-death block, with psi1, mu and observable; then the
    break brk of BREAKS, if any."""
    n = draw(st.integers(2, 4))
    floats = lambda low, high, k=n: draw(st.lists(st.floats(low, high), min_size=k, max_size=k))
    A = np.array(draw(st.lists(_RATES, min_size=n * n, max_size=n * n))).reshape(n, n)
    A[np.arange(n), (np.arange(n) + 1) % n] = floats(0.01, 10.0)
    np.fill_diagonal(A, 0.0)
    kappa = np.array(draw(st.lists(_RATES, min_size=n, max_size=n)))
    kappa[draw(st.integers(0, n - 1))] = draw(st.floats(0.01, 10.0))
    mu = np.array(floats(0.01, 1.0))
    doc = {"psi1": floats(1.0, 10.0), "mu": (mu / mu.sum()).tolist(),
           "observable": floats(-1.0, 1.0)}
    blocks = {"generator": (A - np.diag(A.sum(axis=1) + kappa)).tolist(),
              "birth_death": {"n": n, "birth": floats(0.1, 5.0, n - 1) + [0.0],
                              "death": floats(0.1, 5.0)}}
    rate_breaks = ("negative-rate", "positive-row-sum", "reducible")
    block = ("generator" if brk in (*rate_breaks, "deep") else "birth_death" if brk == "huge-n"
             else draw(st.sampled_from(sorted(blocks))))
    doc[block] = blocks[block]
    L = doc.get("generator")
    if brk == "negative-rate":
        L[0][1] = -draw(st.floats(0.01, 10.0))
    elif brk == "positive-row-sum":
        L[0][0] = -sum(L[0][1:]) + draw(st.floats(0.01, 10.0))
    elif brk == "reducible":  # state 0 is killed but reaches no other state
        L[0] = [-1.0] + [0.0] * (n - 1)
    elif brk in ("non-numeric", "non-finite"):
        bad = "abc" if brk == "non-numeric" else draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        rates = L[0] if L is not None else doc["birth_death"]["death"]
        draw(st.sampled_from([rates, *(doc[key] for key in VECTORS)]))[0] = bad
    elif brk == "nan-observable":
        doc["observable"][draw(st.integers(0, n - 1))] = np.nan
    elif brk == "wrong-length":
        key = draw(st.sampled_from(VECTORS))
        doc[key] = doc[key][1:] if draw(st.booleans()) else doc[key] + [0.0]
    elif brk == "psi1-below-1":
        doc["psi1"][0] = draw(st.floats(0.0, 0.99))
    elif brk == "mu-not-a-law":
        doc["mu"] = [2.0 * v for v in doc["mu"]]
    elif brk == "unknown-key":
        doc["extra"] = 1.0
    elif brk == "both-blocks":
        doc.update(blocks)
    elif brk == "no-block":
        del doc[block]
    return doc


@pytest.mark.parametrize("brk", [None, *BREAKS, *TEXT_BREAKS])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_model_file_ends_in_a_documented_exit(brk, data):
    """A broken file exits 3 under every cheap subcommand, before it writes
    anything; a valid one exits 0 with no undocumented nan, or 4."""
    doc = data.draw(model_documents(brk))
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.yaml"
        text = yaml.safe_dump(doc)
        model.write_bytes(TEXT_BREAKS[brk](text) if brk in TEXT_BREAKS else text.encode())
        for cmd in (["spectral"], ["variance"], ["moments", "--kmax", "2"]):
            out = Path(tmp) / cmd[0]
            rc, err = _run([*cmd, "--model", str(model)], out)
            assert rc in ((3,) if brk else (0, 4)), (doc, cmd, rc, err)
            assert "Traceback" not in err
            if rc:
                assert re.search(r"^error: [a-z-]+: ", err, re.M), err
                assert not out.exists()
            else:
                assert _undocumented_nans(out) == []
