import io
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from qslab import cli, montecarlo


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "qslab.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def read(path):
    return path.read_bytes()


def csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def meta_of(path):
    out = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        k, _, v = line[2:].partition(" = ")
        out[k] = v
    return out


def test_spectral_subcommand(tmp_path):
    out = tmp_path / "o"
    r = run_cli("spectral", "--model", "m2sym", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = csv_rows(out / "spectral.csv")
    lam = [x for x in rows if x["object"] == "lambda0"][0]
    assert float(lam["value"]) == 1.0
    assert float(lam["residual"]) < 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["model"] == "builtin:m2sym"
    assert manifest["subcommand"] == "spectral"
    assert "spectral.csv" in manifest["outputs"]
    # the hash in the CSV header matches the manifest
    assert meta_of(out / "spectral.csv")["manifest_hash"] == manifest["manifest_hash"]


def test_floats_carry_seventeen_digits(tmp_path):
    out = tmp_path / "o"
    r = run_cli("spectral", "--model", "m2asym", "--out", str(out))
    assert r.returncode == 0
    text = (out / "spectral.csv").read_text()
    assert "1.5857864376269049" in text  # 3 - sqrt(2) at full precision


def test_dump_writer_matches_per_value_formatting():
    """The chunked writer of `clt --dump` writes the bytes of one
    f"{v:.17g}" line per value, across chunk boundaries and at the edges
    of the double range."""
    edges = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
             -1.7976931348623157e308, 1e-7, 0.1, 1e16, 123456789.0]
    rng = np.random.default_rng(3)
    values = np.concatenate([edges, rng.standard_normal(2 * cli._DUMP_CHUNK + 7)
                             * 10.0 ** rng.integers(-300, 300, 2 * cli._DUMP_CHUNK + 7), edges])
    fh = io.StringIO()
    cli._write_values(fh, values)
    assert fh.getvalue() == "".join(f"{v:.17g}\n" for v in values.tolist())


def test_usage_errors_exit_2(tmp_path):
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("spectral", "--bogus", "x").returncode == 2
    assert run_cli("spectral").returncode == 2  # --model is required
    with pytest.raises(SystemExit) as exc:  # argparse hands a value "--" over as []
        cli.main(["clt", "--model", "m2sym", "--t=--", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_the_parser_is_built_once_per_process(tmp_path):
    """main reuses one parser; a parse leaves no value behind for the next."""
    cli.build_parser.cache_clear()
    for sub in ("spectral", "variance"):
        assert cli.main([sub, "--model", "m2sym", "--out", str(tmp_path / sub)]) == 0
    assert cli.build_parser.cache_info().misses == 1
    parser = cli.build_parser()
    assert parser.parse_args(["clt", "--model", "m2sym", "--t", "5"]).t == 5.0
    assert parser.parse_args(["clt", "--model", "m2sym"]).t == 100.0


def test_validation_errors_exit_3(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("generator: [[-1.0, 1.0], [1.0, -1.0]]\n")
    r = run_cli("spectral", "--model", str(bad), "--out", str(tmp_path / "o"))
    assert r.returncode == 3
    assert "error: no-killing" in r.stderr


def test_decay_below_double_resolution_is_a_numerical_error(tmp_path, capsys):
    """Birth 3, death 1 on 60 states has killing at state 1, but its decay
    rate, 3.1e-29 by 120-digit mpmath, lies far below eps ||L||: a numerical
    limit (exit 4), not a chain without killing (exit 3)."""
    model = tmp_path / "slow.yaml"
    model.write_text("birth_death: {n: 60, birth: [" + "3.0, " * 59 + "0.0], death: ["
                     + ", ".join(["1.0"] * 60) + "]}\n")
    out = tmp_path / "o"
    assert cli.main(["spectral", "--model", str(model), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error: unresolved-decay: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("clt", "--t", "0"), ("clt", "--t=-1"), ("qed", "--times", "0"),
], ids=["clt-t0", "clt-t-neg", "qed-t0"])
def test_nonpositive_time_is_a_validation_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    rc = cli.main([*argv, "--model", "m2sym", "--n", "100", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: validation: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("clt", "--n", "-5"), ("clt", "--n", "0"), ("qed", "--n", "-5"), ("all", "--n", "-5"),
    ("clt", "--n", "100", "--seed=-1"), ("clt", "--n", "100", "--seed", str(2 ** 64)),
    ("moments", "--times=-1"),
    ("moments", "--times", "abc"), ("charfun", "--omegas", "x"),
    ("certify", "--tpoints=-3"), ("certify", "--tmax", "nan"),
    ("charfun", "--times", "nan"), ("charfun", "--omegas", "inf"), ("qprocess", "--T", "inf"),
    ("qed", "--times", ",", "--n", "100"), ("qed", "--n", "1"),
    ("qed", "--model", "bd5", "--method", "rejection", "--n", "3", "--times", "30,40"),
    ("charfun", "--times", "0"), ("charfun", "--times", "1,-4"), ("qprocess", "--t=-500"),
], ids=["clt-n-neg", "clt-n0", "qed-n-neg", "all-n-neg", "seed-neg", "seed-2^64",
        "moments-t-neg", "moments-t-abc", "charfun-omega-x", "certify-tpoints-neg",
        "certify-tmax-nan", "charfun-t-nan", "charfun-omega-inf", "qprocess-T-inf",
        "qed-t-empty", "qed-n1", "qed-none-kept", "charfun-t0", "charfun-t-neg",
        "qprocess-t-neg"])
def test_out_of_range_arguments_are_validation_errors(tmp_path, capsys, argv):
    out = tmp_path / "o"
    model = () if "--model" in argv else ("--model", "m2sym")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        rc = cli.main([*argv, *model, "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: validation: ")
    assert not out.exists()


def test_largest_u64_seed_runs(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["clt", "--model", "m2sym", "--n", "100", "--t", "5",
                     "--seed", str(2 ** 64 - 1), "--out", str(out)]) == 0
    assert meta_of(out / "clt.csv")["seed"] == str(2 ** 64 - 1)


def _model(tmp_path, generator, observable):
    path = tmp_path / "model.yaml"
    path.write_text(f"generator: {generator}\nobservable: {observable}\n")
    return str(path)


def test_constant_observable_asserts_no_clt(tmp_path):
    model = _model(tmp_path, "[[-3.0, 1.0], [2.0, -3.0]]", "[0.3, 0.3]")
    out = tmp_path / "o"
    assert cli.main(["clt", "--model", model, "--t", "5", "--n", "500",
                     "--out", str(out)]) == 0
    row = csv_rows(out / "clt.csv")[0]
    assert (row["sigma2"], row["d_kolm"], row["gap_bound"]) == ("0", "nan", "nan")


def test_constant_observable_is_sampled_like_any_other(tmp_path, capsys):
    """Rejection keeps the survivors of a constant f and meets the budget
    n e^{lambda0 t}; qed's exact column is the oracle's 0."""
    model = _model(tmp_path, "[[-2.0, 1.0], [1.0, -2.0]]", "[0.5, 0.5]")
    argv = ["clt", "--model", model, "--method", "rejection", "--n", "1000"]
    assert cli.main([*argv, "--t", "5", "--out", str(tmp_path / "clt")]) == 0
    assert 0 < int(csv_rows(tmp_path / "clt" / "clt.csv")[0]["n_eff"]) < 100  # e^{-5} n = 7
    assert cli.main([*argv, "--t", "100", "--out", str(tmp_path / "big")]) == 4
    assert capsys.readouterr().err.startswith("error: budget-exceeded: ")
    assert not (tmp_path / "big").exists()
    out = tmp_path / "qed"
    assert cli.main(["qed", "--model", model, "--n", "500", "--out", str(out)]) == 0
    assert [row["exact"] for row in csv_rows(out / "qed.csv")] == ["0", "0", "0"]


def test_tiny_nonconstant_observable_has_degenerate_variance(tmp_path, capsys):
    """sigma^2 = 2.5e-15: clt asserts no CLT, while qed, which needs no
    sigma^2, reports its exact column."""
    model = _model(tmp_path, "[[-2.0, 1.0], [1.0, -2.0]]", "[1.0e-7, 0.0]")
    rc = cli.main(["clt", "--model", model, "--t", "5", "--n", "500",
                   "--out", str(tmp_path / "clt")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: degenerate-variance: ")
    out = tmp_path / "qed"
    assert cli.main(["qed", "--model", model, "--n", "500", "--out", str(out)]) == 0
    assert all(float(row["exact"]) > 0 for row in csv_rows(out / "qed.csv"))


def test_degenerate_variance_is_found_before_sampling(tmp_path, capsys, monkeypatch):
    model = _model(tmp_path, "[[-2.0, 1.0], [1.0, -2.0]]", "[1.0e-7, 0.0]")
    calls = []
    monkeypatch.setattr(montecarlo, "conditional_clt_sample",
                        lambda *a, **k: calls.append(a))
    out = tmp_path / "o"
    argv = ["clt", "--model", model, "--n", "100000", "--out", str(out)]
    assert cli.main([*argv, "--t", "200"]) == 4
    assert capsys.readouterr().err.startswith("error: degenerate-variance: ")
    assert cli.main([*argv, "--t", "0"]) == 3
    assert capsys.readouterr().err.startswith("error: validation: ")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("text, code, exit_code", [
    ("generator: [[-1.0]]\n", "degenerate-gap", 4),
    ("birth_death: {n: abc, birth: [1.0, 0.0], death: [1.0, 1.0]}\n", "parse-error", 3),
    ("birth_death: {n: 2.7, birth: [1.0, 0.0], death: [1.0, 1.0]}\n", "parse-error", 3),
    ("states: 5\ngenerator: [[-2.0, 1.0], [1.0, -2.0]]\n", "parse-error", 3),
    # max|f| <= 1 is tested so that nan fails it, as inf does
    ("generator: [[-2.0, 1.0], [1.0, -2.0]]\nobservable: [.nan, 0.0]\n", "validation", 3),
    ("generator: [[-2.0, 1.0], [1.0, -2.0]]\nobservable: [.inf, 0.0]\n", "validation", 3),
    ("birth_death: {n: 2, birth: [1.0, 0.0], death: [1.0, 1.0], extra: 1}\n", "parse-error", 3),
    ("birth_death: {n: 2, birth: [1.0, 0.0]}\n", "parse-error", 3),
    ("states: [a, b, c]\ngenerator: [[-2.0, 1.0], [1.0, -2.0]]\n", "validation", 3),
    (b"name: \xff\xfe\ngenerator: [[-2.0, 1.0], [1.0, -2.0]]\n", "parse-error", 3),
    ("birth_death: {n: " + "1" * 4301 + ", birth: [1.0, 0.0], death: [1.0, 1.0]}\n",
     "parse-error", 3),
    ("generator: " + "[" * 10 ** 5 + "]" * 10 ** 5 + "\n", "parse-error", 3),
    ("generator: !!seq " + "[" * 10 ** 5 + "]" * 10 ** 5 + "\n", "parse-error", 3),
], ids=["one-state", "n-not-numeric", "n-not-integer", "states-not-list", "observable-nan",
        "observable-inf", "birth-death-extra-key", "birth-death-missing-field",
        "states-wrong-length", "not-utf8", "n-past-the-digit-limit", "nested-1e5-deep",
        "nested-1e5-deep-tagged"])
def test_bad_model_files_end_in_coded_errors(tmp_path, capsys, text, code, exit_code):
    model = tmp_path / "model.yaml"
    model.write_bytes(text if isinstance(text, bytes) else text.encode())
    start = time.monotonic()
    rc = cli.main(["spectral", "--model", str(model), "--out", str(tmp_path / "o")])
    assert time.monotonic() - start < 10.0  # YAML parsing slows with the square of the depth
    assert rc == exit_code
    assert capsys.readouterr().err.startswith(f"error: {code}: ")


def test_numerical_errors_exit_4(tmp_path):
    r = run_cli("moments", "--model", "m2sym", "--kmax", "8", "--times", "1e40",
                "--out", str(tmp_path / "o"))
    assert r.returncode == 4
    assert "error: overflow-guard" in r.stderr


def test_variance_subcommand_cross_oracle(tmp_path):
    out = tmp_path / "o"
    r = run_cli("variance", "--model", "m2sym", "--out", str(out))
    assert r.returncode == 0
    row = csv_rows(out / "variance.csv")[0]
    assert float(row["sigma2"]) == 1.0
    assert float(row["abs_diff"]) <= float(row["error_bound"])
    assert float(row["error_bound"]) <= 1e-8
    assert row["step"] == row["horizon"]  # one exponential spans the horizon


def test_certify_subcommand(tmp_path):
    out = tmp_path / "o"
    r = run_cli("certify", "--model", "bd5", "--out", str(out))
    assert r.returncode == 0
    meta = meta_of(out / "certify.csv")
    assert float(meta["C"]) == 2.0 * float(meta["worst_ratio"])
    assert float(meta["slack_factor"]) == 2.0
    rows = csv_rows(out / "certify.csv")
    assert abs(max(float(x["ratio"]) for x in rows) - float(meta["worst_ratio"])) < 1e-12


def test_certify_tmax_sets_the_grid(tmp_path, capsys):
    """--tmax replaces 6/gamma as the end of the geometric sweep, which
    starts at 0.1/gamma = 0.05 on m2sym (gamma = 2) and must reach 5/gamma."""
    out = tmp_path / "o"
    assert cli.main(["certify", "--model", "m2sym", "--tmax", "10", "--tpoints", "5",
                     "--out", str(out)]) == 0
    times = [float(row["t"]) for row in csv_rows(out / "certify.csv")]
    assert times == [0.0, *np.geomspace(0.05, 10.0, 5)]
    short = tmp_path / "short"
    assert cli.main(["certify", "--model", "m2sym", "--tmax", "1", "--out", str(short)]) == 3
    assert capsys.readouterr().err.startswith("error: validation: ")
    assert not short.exists()


def test_certificate_ratio_overflow_is_a_numerical_error(tmp_path, capsys):
    """On m2sym (n = 2, gamma = 2) the ratio's rounding floor n eps e^{gamma t}
    reaches 5e10 at t = 30, where the exact C is 2, and e^{gamma t} itself
    overflows past t = 355: both grids are refused before any exponential."""
    for tmax in ("30", "1000"):
        out = tmp_path / tmax
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["certify", "--model", "m2sym", "--tmax", tmax, "--out", str(out)])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: overflow-guard: ")
        assert not out.exists()


@pytest.mark.parametrize("model, argv", [
    ("m2sym", ("moments", "--kmax", "0", "--times", "1e300")),
    ("m2sym", ("moments", "--kmax", "0", "--times", "1e12,1e14")),
    ("m2sym", ("charfun", "--times", "1e300")),
    ("cycle", ("qprocess", "--t", "1", "--T", "1e300")),
    ("m2sym", ("charfun", "--times", "1e15", "--omegas", "1")),
    ("bd5", ("charfun", "--times", "1e20", "--omegas", "1")),
], ids=["moments", "moments-rounding", "charfun", "qprocess", "charfun-rounding",
        "charfun-bd5"])
def test_non_finite_oracles_are_overflow_errors(tmp_path, capsys, cycle_model, model, argv):
    """At t = 1e300 the exponentials round to inf or nan, and well before
    that their squarings lose more than 1e-6: moments at t = 1e12 wrote
    survival 1.0000534 and 0.98787 where it is 1, and charfun at 1e15 wrote
    re = 0.5544 where it is 0.6065 (at 1e20 on bd5, 0).  The run exits 4 and
    writes no CSV, so no nan or drifted row.  qprocess needs a chain that is
    not reversible: a reversible chain's marginals come from its
    eigenbasis, which has no squarings."""
    out = tmp_path / "o"
    model = cycle_model if model == "cycle" else model
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([argv[0], "--model", model, *argv[1:], "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: overflow-guard: ") and "Traceback" not in err
    assert not out.exists()


def test_reversible_conditional_marginal_has_no_rounding_floor(tmp_path):
    """On bd5 the conditioned law at t given survival to T = 1e300 is the
    Q-process marginal: the eigenbasis sends every other mode to 0."""
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["qprocess", "--model", "bd5", "--t", "1", "--T", "1e300",
                       "--out", str(out)])
    assert rc == 0
    (row,) = csv_rows(out / "qprocess.csv")
    assert float(row["tv_gap"]) < 1e-14
    assert float(row["bound"]) == 0.0


@pytest.mark.parametrize("argv", [
    ("clt", "--t", "1e300"),
    ("qed", "--times", "1e300"),
    ("clt", "--t", "1e10", "--method", "qprocess"),
], ids=["clt", "qed", "clt-1e10"])
def test_monte_carlo_refuses_unbounded_step_counts(tmp_path, argv):
    """One replica's expected steps, max rate * t, above the 1e9 budget exit 4
    before any draw; the timeout catches a run that starts stepping."""
    out = tmp_path / "o"
    r = subprocess.run([sys.executable, "-m", "qslab.cli", argv[0], "--model", "m2sym",
                        *argv[1:], "--n", "10", "--out", str(out)],
                       capture_output=True, text=True, timeout=30)
    assert r.returncode == 4
    assert r.stderr.startswith("error: budget-exceeded: ") and "Traceback" not in r.stderr
    assert not out.exists()


def test_huge_birth_death_file_is_refused_before_it_is_built(tmp_path):
    """40000 states would need an 11.9 GiB generator; the run exits 4 with
    a coded diagnostic instead of a MemoryError traceback."""
    n = 40000
    model = tmp_path / "huge.yaml"
    model.write_text(f"birth_death:\n  n: {n}\n  birth: [{'1.0, ' * (n - 1)}0.0]\n"
                     f"  death: [{', '.join(['1.0'] * n)}]\n")
    out = tmp_path / "o"
    r = subprocess.run([sys.executable, "-m", "qslab.cli", "spectral", "--model", str(model),
                        "--out", str(out)], capture_output=True, text=True, timeout=30)
    assert r.returncode == 4
    assert r.stderr.startswith("error: budget-exceeded: ") and "Traceback" not in r.stderr
    assert f"n = {n} states" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("clt", "--n", "10000000000"),
    ("qed", "--n", "10000000000"),
    ("certify", "--tpoints", "1000000000000"),
], ids=["clt", "qed", "certify"])
def test_huge_counts_are_refused_before_they_allocate(tmp_path, argv):
    """10^10 replicas would need 74.5 GiB of samples (224 GiB for qed's three
    horizons) and 10^12 grid times 7.28 TiB; each exits 4 with a coded
    diagnostic instead of a MemoryError traceback."""
    out = tmp_path / "o"
    r = subprocess.run([sys.executable, "-m", "qslab.cli", argv[0], "--model", "m2sym",
                        *argv[1:], "--out", str(out)], capture_output=True, text=True, timeout=30)
    assert r.returncode == 4
    assert r.stderr.startswith("error: budget-exceeded: ") and "Traceback" not in r.stderr
    assert not out.exists()


def test_model_file_is_hashed_into_manifest(tmp_path):
    model = tmp_path / "ladder.yaml"
    model.write_text(
        "name: ladder\nbirth_death:\n  n: 3\n  birth: [1.0, 1.0, 0.0]\n"
        "  death: [1.0, 1.0, 1.0]\n"
    )
    out = tmp_path / "o"
    r = run_cli("spectral", "--model", str(model), "--out", str(out))
    assert r.returncode == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["model"].startswith("sha256:")
    assert len(manifest["model"]) == len("sha256:") + 64


def test_clt_reruns_are_byte_identical_across_threads(tmp_path):
    args = ("clt", "--model", "m2sym", "--t", "25", "--n", "2000",
            "--seed", "7", "--dump")
    o1, o2, o3 = (tmp_path / n for n in ("a", "b", "c"))
    assert run_cli(*args, "--out", str(o1)).returncode == 0
    assert run_cli(*args, "--out", str(o2)).returncode == 0
    assert run_cli(*args, "--out", str(o3), "--threads", "4").returncode == 0
    for name in ("clt.csv", "clt_samples.txt"):
        assert read(o1 / name) == read(o2 / name)
        assert read(o1 / name) == read(o3 / name)
    # manifests agree except for wall clock
    m1 = json.loads((o1 / "manifest.json").read_text())
    m3 = json.loads((o3 / "manifest.json").read_text())
    assert m1["manifest_hash"] == m3["manifest_hash"]
    # the Q-process coupling-gap prefactor C mu(psi1)/mu(eta) = C = 2 on m2sym;
    # rejection sampling is exact conditioning and has none
    assert abs(float(csv_rows(o1 / "clt.csv")[0]["gap_bound"]) - 2.0) < 1e-10
    o4 = tmp_path / "d"
    assert run_cli("clt", "--model", "m2sym", "--t", "1", "--n", "300",
                   "--method", "rejection", "--out", str(o4)).returncode == 0
    assert csv_rows(o4 / "clt.csv")[0]["gap_bound"] == "nan"


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """With OpenBLAS free to use two threads, `certify` on the 300-state
    unit ladder wrote C = 4.5198424791287062 where one thread writes
    4.5198424791287044; a run pins both bundled OpenBLAS copies to one
    thread, so the bytes agree whatever the environment asks for."""
    n = 300
    model = tmp_path / "ladder300.yaml"
    model.write_text(f"birth_death: {{n: {n}, birth: {[1.0] * (n - 1) + [0.0]}, "
                     f"death: {[1.0] * n}}}\n")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        r = subprocess.run([sys.executable, "-m", "qslab.cli", "certify", "--model", str(model),
                            "--out", str(out)], capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert r.returncode == 0, r.stderr
        outs.append(read(out / "certify.csv"))
    assert outs[0] == outs[1]


def test_different_seed_changes_samples(tmp_path):
    o1, o2 = tmp_path / "a", tmp_path / "b"
    base = ("clt", "--model", "m2sym", "--t", "25", "--n", "1000", "--dump")
    assert run_cli(*base, "--seed", "7", "--out", str(o1)).returncode == 0
    assert run_cli(*base, "--seed", "8", "--out", str(o2)).returncode == 0
    assert read(o1 / "clt_samples.txt") != read(o2 / "clt_samples.txt")
    m1 = json.loads((o1 / "manifest.json").read_text())
    m2 = json.loads((o2 / "manifest.json").read_text())
    assert m1["manifest_hash"] != m2["manifest_hash"]


def test_qed_subcommand(tmp_path):
    out = tmp_path / "o"
    r = run_cli("qed", "--model", "m2sym", "--times", "5,10", "--n", "500",
                "--out", str(out))
    assert r.returncode == 0
    meta = meta_of(out / "qed.csv")
    assert "fitted_rate" in meta
    rows = csv_rows(out / "qed.csv")
    assert len(rows) == 2
    for row in rows:
        assert float(row["mean_square"]) > 0


def test_qed_at_one_repeated_time_writes_no_rate(tmp_path):
    """Two rows at the same t determine no decay rate: the header says nan,
    the documented value, and nothing is printed."""
    out = tmp_path / "o"
    r = run_cli("qed", "--model", "m2sym", "--times", "5,5", "--n", "500", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    assert meta_of(out / "qed.csv")["fitted_rate"] == "nan"
    assert len(csv_rows(out / "qed.csv")) == 2


def test_qed_refuses_a_time_whose_square_underflows(tmp_path):
    """At t = 1e-200 both t^2 and the exact second moment underflow to 0,
    and the exact column was 0/0 = nan; a time below 2^-511 exits 3 and
    names the time, while 2^-511 itself is served."""
    out = tmp_path / "o"
    r = run_cli("qed", "--model", "m2sym", "--times", "1e-200,1e-100", "--out", str(out))
    assert r.returncode == 3
    assert r.stderr.startswith("error: validation: time t=1e-200 ")
    assert not out.exists()
    r = run_cli("qed", "--model", "bd5", "--times", f"{2.0 ** -511!r},1", "--n", "100",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert all(float(row["exact"]) > 0 for row in csv_rows(out / "qed.csv"))


def test_tiny_qed_time_is_refused_before_sampling(tmp_path, capsys, monkeypatch):
    """A time below 2^-511 among many replicas costs no draw: it is refused
    where qed's times are read, before the sampler is called."""
    calls = []
    monkeypatch.setattr(montecarlo, "conditional_clt_sample",
                        lambda *a, **k: calls.append(a))
    out = tmp_path / "o"
    assert cli.main(["qed", "--model", "m2sym", "--times", "5,1e-200", "--n", "10000000",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: validation: time t=1e-200 ")
    assert calls == [] and not out.exists()


def test_all_subcommand_produces_full_report_set(tmp_path):
    out = tmp_path / "o"
    r = run_cli("all", "--model", "m2sym", "--n", "2000", "--out", str(out))
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    expected = {"spectral.csv", "certify.csv", "qprocess.csv", "variance.csv",
                "moments.csv", "charfun.csv", "clt.csv", "qed.csv"}
    assert expected <= set(manifest["outputs"])
    for name in expected:
        assert (out / name).exists()


def test_drifted_ladder_spectral_run_succeeds(tmp_path):
    """Birth 1, death 3 on 60 states: dense eig exited 4 (degenerate-gap,
    eigen-residual 1.3e-3); the symmetric form solves it."""
    model = tmp_path / "drifted.yaml"
    model.write_text("birth_death: {n: 60, birth: [" + "1.0, " * 59 + "0.0], death: ["
                     + ", ".join(["3.0"] * 60) + "]}\n")
    out = tmp_path / "o"
    assert cli.main(["spectral", "--model", str(model), "--out", str(out)]) == 0
    rows = {(r["object"], r["index"]): float(r["value"]) for r in csv_rows(out / "spectral.csv")}
    assert abs(rows[("lambda0", "")] - 0.54029322509106478) < 1e-14


def test_drifted_ladder_that_is_not_reversible_keeps_the_absolute_residual(tmp_path, capsys):
    """The same ladder with a one-way edge from state 60 to state 1 at rate
    0.5 is not reversible, so it goes through eig, which is as far off as
    on the plain ladder: lambda0 = 0.54043010 and gamma = 0.013592 where
    mpmath 1.3.0 (eig at 60 digits) gives 0.54043104165772 and
    0.0135869023243529.  Relative to max |eta| its residual is small, but
    that is only a backward error; the absolute residual refuses it."""
    import qslab

    L = np.array(qslab.build_birth_death(60, [1.0] * 59 + [0.0], [3.0] * 60).sub_generator)
    L[59, 0], L[59, 59] = 0.5, L[59, 59] - 0.5
    model = tmp_path / "one-way.yaml"
    model.write_text(json.dumps({"generator": L.tolist()}))  # JSON is YAML
    out = tmp_path / "o"
    assert cli.main(["spectral", "--model", str(model), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error: degenerate-gap: eigen-residual")
    assert not out.exists()
