"""Property test of the command-line boundary: whatever numbers or strings
the options get, on the builtins or on drifted birth-death ladders (the
reversible chains far from normal), `cli.main` ends in a documented exit
code, never raises, prints a coded diagnostic on failure, and writes no
undocumented `nan`."""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from qslab import cli

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


def _ints(low, high):
    """Integer options, or a float or garbage string that argparse refuses."""
    return st.one_of(st.integers(low, high).map(str), NUMBERS, GARBAGE)


METHODS = st.sampled_from(["rejection", "qprocess"])
# (n, birth, death) of a ladder with constant rates: pi spans up to 10 decades
LADDERS = st.tuples(st.integers(2, 8), st.floats(0.2, 5.0), st.floats(0.2, 5.0))

OPTIONS = {
    "spectral": {},
    "certify": {"tmax": SCALARS, "tpoints": _ints(-1000, 1000)},
    "qprocess": {"t": SCALARS, "T": TIMES},
    "variance": {},
    "moments": {"kmax": _ints(-2, 10), "times": TIME_LISTS},
    "charfun": {"omegas": LISTS, "times": TIME_LISTS},
    "clt": {"t": TIMES, "n": _ints(-5, 200), "method": METHODS},
    "qed": {"times": TIME_LISTS, "n": _ints(-5, 200), "method": METHODS},
    "all": {"n": _ints(-5, 200)},
}
# clt.csv documents nan distance and gap_bound (constant observable, rejection)
ALLOWED_NAN = {("clt.csv", "d_kolm"), ("clt.csv", "gap_bound")}


@st.composite
def command_lines(draw):
    cmd = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [cmd, "--model", draw(st.one_of(st.sampled_from(["m2sym", "bd5"]), LADDERS))]
    for name, values in OPTIONS[cmd].items():
        if draw(st.booleans()):
            argv.append(f"--{name}={draw(values)}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(-2, 2 ** 64 + 2))}")
    return argv


def _undocumented_nans(out):
    found = []
    for path in sorted(out.glob("*.csv")):
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        for line in lines[1:]:
            for column, value in zip(header, line.split(",")):
                if "nan" in value.lower() and (path.name, column) not in ALLOWED_NAN:
                    found.append((path.name, column, line))
    return found


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_any_command_line_ends_in_a_documented_exit(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        argv = list(argv)  # hypothesis may replay the drawn example
        if isinstance(argv[2], tuple):
            n, birth, death = argv[2]
            argv[2] = str(Path(tmp) / "ladder.yaml")
            Path(argv[2]).write_text(
                f"birth_death: {{n: {n}, birth: {[birth] * (n - 1) + [0.0]}, "
                f"death: {[death] * n}}}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main([*argv, "--out", str(out)])
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
        assert rc in (0, 2, 3, 4), (argv, rc, err.getvalue())
        if rc == 2:
            assert "error: " in err.getvalue()
        elif rc:
            assert re.search(r"^error: [a-z-]+: ", err.getvalue(), re.M), err.getvalue()
            assert not out.exists()
        else:
            assert _undocumented_nans(out) == []
