#!/usr/bin/env python3
"""qslab benchmark: three fixed workloads through `qslab.cli.main`.

    python3 perfbench/run.py --workload clt-m2sym --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a qslab source tree; qslab is imported from `src/`.
One process runs one workload as a closed loop with a single caller: it
repeats whole rounds of the workload's operations until `--seconds` have
passed, checks every output (once, after the timed rounds; every round must
repeat the first round's outputs byte for byte), and prints as its last
stdout line one JSON object {correct, attempted, failed, metrics}.  With
`--trace 0` the metrics are end to end (mean round time over the mean time
of a reference kernel run between the operations, median set-up time, peak
RSS); with `--trace 1` untraced and traced rounds alternate, and the metrics
are per-layer self times and call counts plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("clt-m2sym", "pipeline-dense", "oracles-ladder")
LAYERS = ("chain_model", "spectral", "qprocess", "variance_clt", "montecarlo", "cli")
SETUP_REPEATS = 7
REF_PER_ROUND = 6        # reference-kernel samples per round, spread over its operations

# per-layer metrics: "<layer>.<function>.s" is span self time, ".calls" a count
LAYER_METRICS = [
    "chain_model.resolve_model.s", "chain_model.resolve_model.calls",
    "chain_model.load_model_config.s",
    "spectral.solve_spectral.s", "spectral.solve_spectral.calls",
    "spectral.certify_ergodicity.s", "spectral.certify_ergodicity.calls",
    "spectral.certification_profile.s", "spectral.certification_profile.calls",
    "spectral.expm.s", "spectral.expm.calls",
    "qprocess.h_transform.s", "qprocess.h_transform.calls",
    "qprocess.conditional_vs_q_gap.s",
    "qprocess.expm.s", "qprocess.expm.calls",
    "variance_clt.sigma2_poisson.s", "variance_clt.sigma2_poisson.calls",
    "variance_clt.sigma2_quadrature.s", "variance_clt.sigma2_poisson_solve.s",
    "variance_clt.quadrature_steps",
    "variance_clt.exact_conditional_moments.s", "variance_clt.exact_conditional_charfun.s",
    "variance_clt.expm.s", "variance_clt.expm.calls",
    "montecarlo.conditional_clt_sample.s", "montecarlo.conditional_clt_sample.calls",
    "montecarlo.philox_stream.s", "montecarlo.philox_stream.calls",
    "montecarlo.replicas_kept_ratio",
    "montecarlo.kolmogorov_distance.s", "montecarlo.quasi_ergodic_check.s",
    "cli.main.self_s", "cli.main.calls",
    "trace.overhead_s",
]


def _unit(metric):
    if metric.endswith((".s", "_s")):
        return "s"
    return "ratio" if metric.endswith("ratio") else "count"


# ---------------------------------------------------------------------------
# set-up: import qslab from the source tree and write the model files

def setup(workload, seed, inputs_dir):
    """Import qslab and write the workload's inputs; returns (seconds,
    workload, inputs).  Nothing heavy is imported before the clock starts."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qslab.cli
    if not Path(qslab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: qslab imported from {qslab.__file__}, not {SRC}")
    import workloads
    wl = workloads.WORKLOADS[workload]
    os.makedirs(inputs_dir, exist_ok=True)
    inputs = wl.make_inputs(str(inputs_dir), seed)
    return time.perf_counter() - t0, wl, inputs


def setup_in_child(workload, seed, inputs_dir):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--setup-only", str(inputs_dir)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# rounds

class RunState:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []        # check failures: correct = not problems
        self.failures = []        # operations that exited non-zero
        self.digests = {}         # op name -> digest of its first successful outputs


def run_op(argv):
    """(exit code, seconds, stderr text) of one in-process qslab call."""
    import qslab.cli
    err = io.StringIO()
    with redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = qslab.cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a crash of the bench
            rc = 1
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return rc, dt, err.getvalue()


def reference_kernel():
    """Seconds taken by a fixed slice of interpreter and BLAS work that does
    not touch qslab: the host's speed at that moment."""
    import numpy as np
    a = np.arange(40_000.0).reshape(200, 200) / 40_000.0
    t0 = time.perf_counter()
    x = 0
    for i in range(150_000):
        x += i * i
    for _ in range(5):
        a @ a
    return time.perf_counter() - t0


def outputs_digest(out):
    """Digest of every file an operation wrote, except its manifest (which
    carries a timestamp)."""
    import checks
    return checks.digest(*(os.path.join(out, f) for f in sorted(os.listdir(out))
                           if f != "manifest.json"))


def run_round(ops, state, before_op=None):
    """Run every operation once, calling `before_op` (untimed) ahead of each;
    returns the round's wall time.  An operation's outputs must repeat byte
    for byte in every round; `check_outputs` checks them once."""
    wall = 0.0
    for op in ops:
        if before_op:
            before_op()
        rc, dt, err = run_op(op.argv)
        wall += dt
        state.attempted += 1
        if rc != 0:
            state.failed += 1
            last = err.strip().splitlines()[-1] if err.strip() else ""
            state.failures.append(f"{op.name}: exit {rc}: {last}")
            continue
        d = outputs_digest(op.out)
        if state.digests.setdefault(op.name, d) != d:
            state.problems.append(f"{op.name}: outputs differ between rounds")
    return wall


def check_outputs(ops, state):
    """Check the outputs of every operation that exited 0.  This runs after
    the timed rounds, so that the checks' own allocations stay out of the
    peak RSS (they made it jump by 14 MB between runs of the same seed)."""
    for op in ops:
        if op.name not in state.digests:
            continue
        try:
            op.check(op.out)
        except Exception as exc:  # any check error makes the run incorrect
            state.problems.append(f"{op.name}: {type(exc).__name__}: {exc}")


def reproducibility(wl, ops, state, work, rounds):
    """Rerun one operation with --threads 2 (and once more with --threads 1
    if only one round ran): its compared outputs must match the timed rounds'
    byte for byte."""
    import checks
    op = next(o for o in ops if o.name == wl.repro)
    if op.name not in state.digests:      # it never exited 0; counted as failed
        return
    want = checks.digest(*(os.path.join(op.out, f) for f in op.compare))
    reruns = [("threads2", ["--threads", "2"])]
    if rounds < 2:
        reruns.append(("threads1", ["--threads", "1"]))
    for tag, extra in reruns:
        out = os.path.join(work, f"{op.name}-{tag}")
        rc, _, err = run_op(op.argv + ["--out", out] + extra)
        if rc != 0:
            state.problems.append(f"{op.name} {tag}: exit {rc}: {err.strip()}")
            continue
        d = checks.digest(*(os.path.join(out, f) for f in op.compare))
        if d != want:
            state.problems.append(f"{op.name} {tag}: outputs differ from --threads 1")


def peak_rss_mb():
    """This process's peak RSS in MB.  VmHWM, where there is one: Linux
    carries ru_maxrss over exec, so a child's ru_maxrss is at least its
    parent's RSS at the fork."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_round(workload, seed, work):
    """Peak RSS (MB) of set-up plus one untimed round, in this fresh process.
    The timed process's own peak follows its heap layout after many rounds:
    it moved by up to 14 MB with the interpreter's hash seed alone."""
    _, wl, inputs = setup(workload, seed, work / "inputs")
    run_round(wl.ops(inputs, seed, str(work)), RunState())
    return peak_rss_mb()


def rss_in_child(workload, seed, work):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--rss-round", str(work)],
        capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(totals, ops, probe):
    import checks
    out = {}
    for m in LAYER_METRICS:
        span, _, kind = m.rpartition(".")
        if kind == "s":
            out[m] = totals.get(span, (0.0, 0))[0]
        elif kind == "calls":
            out[m] = totals.get(span, (0.0, 0))[1]
    out["cli.main.self_s"] = totals.get("cli.main", (0.0, 0))[0]
    out.update(probe)
    out["variance_clt.quadrature_steps"] = sum(
        checks.quadrature_steps(o.out) for o in ops
        if os.path.exists(os.path.join(o.out, "variance.csv")))
    kept = [checks.replicas(o.out) for o in ops
            if os.path.exists(os.path.join(o.out, "clt.csv"))]
    requested = sum(r for _, r in kept)
    out["montecarlo.replicas_kept_ratio"] = sum(k for k, _ in kept) / requested if requested else 0.0
    return out


def quadrature_probe(ops):
    """Direct public calls, outside any span: sigma2_quadrature beside
    sigma2_poisson(..., with_quadrature=False) on every model whose round
    wrote variance.csv."""
    from qslab import h_transform, resolve_model, solve_spectral, variance_clt
    quad = solve = 0.0
    for op in ops:
        if not os.path.exists(os.path.join(op.out, "variance.csv")):
            continue
        bundle = resolve_model(op.argv[op.argv.index("--model") + 1])
        qp = h_transform(bundle.chain, solve_spectral(bundle.chain), bundle.psi1)
        t0 = time.perf_counter()
        variance_clt.sigma2_poisson(qp, bundle.f, with_quadrature=False)
        t1 = time.perf_counter()
        variance_clt.sigma2_quadrature(qp, bundle.f)
        t2 = time.perf_counter()
        solve += t1 - t0
        quad += t2 - t1
    return {"variance_clt.sigma2_poisson_solve.s": solve, "variance_clt.sigma2_quadrature.s": quad}


# ---------------------------------------------------------------------------

def run_workload(args):
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s, wl, inputs = setup(args.workload, args.seed, work / "inputs")
    ops = wl.ops(inputs, args.seed, str(work))
    state = RunState()
    lines = []

    if not args.trace:
        # The host's speed swings by half within seconds and drifts by a
        # third between runs minutes apart, so rounds are timed against a
        # reference kernel run between their operations.  Means, not
        # medians: the speed is bimodal, and a median jumps between the
        # modes.  Set-ups (fresh child processes) are spread over the run
        # rather than bunched before it.
        refs, reps = [], -(-REF_PER_ROUND // len(ops))
        def sample_reference():
            refs.extend(reference_kernel() for _ in range(reps))
        setups, walls, t0 = [setup_s], [], time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            if walls and elapsed >= args.seconds:
                break
            if len(setups) < SETUP_REPEATS and len(setups) <= SETUP_REPEATS * elapsed / args.seconds:
                setups.append(setup_in_child(args.workload, args.seed, work / f"setup{len(setups)}"))
            else:
                walls.append(run_round(ops, state, sample_reference))
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_in_child(args.workload, args.seed, work / f"setup{len(setups)}"))
        rss = rss_in_child(args.workload, args.seed, work / "rss")
        wall, ref = statistics.fmean(walls), statistics.fmean(refs)
        metrics = {"wall_ref": (wall / ref, "ref"), "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (rss, "MB")}
        replicas = sum(o.replicas for o in ops)
        lines.append(f"rounds {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls) + " s")
        lines.append(f"wall_s = {wall:.6g} s (mean round); reference kernel mean "
                     f"{ref * 1e3:.4g} ms over {len(refs)} samples")
        lines.append(f"set-up samples: " + " ".join(f"{s:.3f}" for s in setups) + " s")
        if replicas:
            lines.append(f"replicas_per_s = {replicas / wall:.1f} 1/s "
                         f"({replicas} replicas per round)")
    else:
        import spans
        tracer = spans.Tracer()
        # untraced and traced rounds alternate; the first (cold) untraced
        # round is left out of the overhead
        untraced, traced, per_round, t0 = [], [], [], time.perf_counter()
        while len(untraced) < 2 or time.perf_counter() - t0 < args.seconds:
            if len(untraced) <= len(traced):
                untraced.append(run_round(ops, state))
                continue
            first = len(tracer)
            tracer.install("qslab", LAYERS)
            try:
                traced.append(run_round(ops, state))
            finally:
                tracer.uninstall()
            per_round.append(tracer.totals(first))
        probe = quadrature_probe(ops)
        tracer.write(work / "spans.npz")
        rows = [layer_metrics(t, ops, probe) for t in per_round]
        # counts repeat exactly between rounds, so median_low keeps them whole
        metrics = {m: ((statistics.median_low if _unit(m) == "count" else statistics.median)(
                       [r[m] for r in rows]), _unit(m))
                   for m in LAYER_METRICS if m in rows[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced[1:]), "s")
        for m in LAYER_METRICS:
            if m.endswith(".calls") and len({r[m] for r in rows}) != 1:
                lines.append(f"note: {m} differs between traced rounds: {[r[m] for r in rows]}")
        lines.append("untraced rounds " + " ".join(f"{w:.3f}" for w in untraced)
                     + " s; traced rounds " + " ".join(f"{w:.3f}" for w in traced)
                     + f" s; {len(tracer)} spans")

    check_outputs(ops, state)
    if wl.repro:
        reproducibility(wl, ops, state, str(work), state.attempted // len(ops))
    lines.append(f"attempted {state.attempted}, failed {state.failed}")
    lines += [f"failed: {f}" for f in state.failures]
    lines += [f"CHECK FAILED: {p}" for p in state.problems]
    for name, (value, unit) in metrics.items():
        lines.append(f"{args.workload} {name} = {value:.6g} {unit}")
    return {"correct": not state.problems, "attempted": state.attempted,
            "failed": state.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}, lines


def run_all(args):
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        out = proc.stdout.splitlines()
        print("\n".join(out[:-1] if proc.returncode == 0 else out))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(out[-1])
    for name, res in results.items():
        print(f"== {name}: correct {res['correct']}, attempted {res['attempted']}, "
              f"failed {res['failed']}")
        for metric, mv in res["metrics"].items():
            print(f"   {metric:42s} {mv['value']:14.6g} {mv['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--rss-round", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "qslab" / "__init__.py").is_file():
        print(f"perfbench: no qslab source tree at {SRC}", file=sys.stderr)
        return 2
    # one compute thread per caller; a BLAS pool would add threads of its own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(setup(args.workload, args.seed, Path(args.setup_only))[0])
        return 0
    if args.rss_round:
        print(rss_round(args.workload, args.seed, Path(args.rss_round)))
        return 0
    result, lines = run_workload(args)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
