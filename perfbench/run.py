"""slqt benchmark: four workloads through parse_experiment_config -> run_experiment.

    python3 perfbench/run.py --workload mc_learn --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

Each pass of a workload runs in a fresh interpreter (worker.py); passes
repeat until --seconds have gone by. --trace 0 reports the end-to-end
metrics, --trace 1 alternates untraced and traced passes and reports the
per-layer metrics. Every pass's outputs are checked against the oracles
in oracles.py. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# numpy is imported only after main() has pinned these; workers inherit them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

DIMS = (2, 4, 8, 16, 32)
WORKLOADS = {
    "mc_learn": ["mc_learn"],
    "cost_study": ["cost_study"],
    "shadow_learn": ["shadow_learn"],
    "model_sweep": [f"model_sweep_n{n:02d}" for n in DIMS],
}
# spans each workload must record in a traced pass
EXPECTED_SPANS = {
    "mc_learn": ["cli.run_experiment", "cli.canonical_json", "benchmarks.gather_moments",
                 "sim.run_ensemble", "regressors.accumulate_raw_moments",
                 "learner.learn_feedback", "learner.learn_feedforward",
                 "sim.simulate_tracking", "bpi.solve_tracking"],
    "cost_study": ["cli.run_experiment", "cli.canonical_json", "bpi.solve_tracking",
                   "sim.estimate_average_cost"],
    "shadow_learn": ["cli.run_experiment", "cli.canonical_json",
                     "benchmarks.gather_moments", "sim.propagate_moments_exact",
                     "regressors.accumulate_raw_moments", "learner.shadow_regressors",
                     "learner.learn_shadow", "learner.learn_feedforward",
                     "sim.simulate_tracking", "bpi.solve_tracking"],
    "model_sweep": ["cli.run_experiment", "cli.canonical_json", "bpi.solve_tracking",
                    "solvers.solve_gen_lyap", "solvers.solve_sylvester",
                    "model.lyap_matrix", "model.spectral_abscissa"],
}
SEED_STRIDE = 100_000
# Workloads whose Monte Carlo ensemble keeps the committed seeds. On some
# draws of mc_learn's ensemble phase II of the data-driven learner never
# settles (MaxIterExceeded at 2 of seeds 1-100, also with 2000 iterations
# allowed), so a seeded ensemble would fail at some seeds only; --seed
# still draws its tracking paths.
FIXED_ENSEMBLE = ("mc_learn",)
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
# Typical time of one worker.calibrate() sample on the reference machine
# (2-CPU Xeon at 2.1 GHz). The host's speed drifts by 10-50% over minutes,
# so end-to-end times are reported at the reference speed: a time measured
# in a worker is scaled by (CALIBRATION_REF_S / c) ** e, c the median of
# the calibration samples that worker took (three after set-up, three
# after the pass). The workloads' times move less than the reference's
# when the host slows, each by its own share, so e is set per workload,
# chosen so that the median of a set of runs stays put between sets made
# minutes apart while the host's speed moves by up to 40%: over three
# sets of ten seeds per workload (four for shadow_learn), the largest
# ratio between the sets' medians was 1.04 for mc_learn at e = 0.5 (1.11
# unscaled), 1.06 for cost_study and 1.05 for model_sweep at 0.9 (1.34
# each unscaled), and 1.08 for shadow_learn at 0.9 (1.54 unscaled).
# Set-up times are scaled with SETUP_EXPONENT.
CALIBRATION_REF_S = 0.2
SPEED_EXPONENT = {"mc_learn": 0.5, "cost_study": 0.9, "shadow_learn": 0.9,
                  "model_sweep": 0.9}
SETUP_EXPONENT = 0.75
_EM = ("sim.run_ensemble", "sim.estimate_average_cost", "sim.simulate_tracking")
_COUNTED = {"sim.propagate_moments_exact": "grid_steps",
            "regressors.accumulate_raw_moments": "grid_points",
            "learner.shadow_regressors": "grid_points"}
_TIMED = ["benchmarks.gather_moments", "learner.learn_feedback",
          "learner.learn_shadow", "learner.learn_feedforward",
          "cli.run_experiment", "cli.canonical_json"]
_BY_DIM = ["bpi.solve_tracking", "solvers.solve_gen_lyap", "solvers.solve_sylvester",
           "model.lyap_matrix", "model.spectral_abscissa"]


def per_layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in _EM:
        out += [(f"{name}.s", "s", "lower"), (f"{name}.path_steps", "count", "lower"),
                (f"{name}.path_steps_per_s", "1/s", "higher")]
    for name, count in _COUNTED.items():
        out += [(f"{name}.s", "s", "lower"), (f"{name}.{count}", "count", "lower")]
    out += [(f"{name}.s", "s", "lower") for name in _TIMED]
    out += [("learner.iterations", "count", "lower"),
            ("cli.payload_bytes", "bytes", "lower"),
            ("pipeline.gains_s", "s", "lower")]
    for n in DIMS:
        out += [(f"{name}.s.n{n}", "s", "lower") for name in _BY_DIM]
        out += [(f"bpi.iterations.n{n}", "count", "lower")]
    out += [("trace.overhead_s", "s", "lower"), ("trace.unattributed_s", "s", "lower"),
            ("acc.K_rel_err", "ratio", "lower"), ("acc.F_max_rel_err", "ratio", "lower"),
            ("acc.ens_moment_max_z", "z", "lower"), ("acc.cost_z_max", "z", "lower"),
            ("acc.sare_residual_max", "ratio", "lower"),
            ("acc.tracking_rms", "1", "lower"), ("acc.tracking_z_max", "z", "lower"),
            ("calibration.s", "s", "lower")]
    return out


def apply_seed(raw: dict, seed: int, ensemble: bool = True) -> dict:
    """Write the workload seed into the seed fields of a config; into the
    ensemble's (``sim`` and the segments) only if ``ensemble``."""
    raw = copy.deepcopy(raw)
    off = seed * SEED_STRIDE
    if ensemble:
        if "sim" in raw:
            raw["sim"]["base_seed"] += off
        for seg in raw.get("segments", []):
            seg["base_seed"] += off
    if "tracking" in raw:
        raw["tracking"]["base_seed"] += off
    if "cost_comparison" in raw:
        raw["cost_comparison"]["seed"] += off
    return raw


def environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def spawn(work: str, tag: str, cfg_paths: list, extra: list) -> tuple:
    """Run worker.py once; return (spawn time on CLOCK_MONOTONIC, result)."""
    out = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, WORKER, "--out", out, *extra, *cfg_paths]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as f:
        doc = json.load(f)
    os.remove(out)
    return t_spawn, doc


def layer_metrics(doc: dict) -> dict:
    m = {name: 0.0 for name, _, _ in per_layer_metrics()}
    incl = {}
    for sp in doc["spans"]:
        name = sp["name"]
        incl[name] = incl.get(name, 0.0) + sp["total_s"]
        if f"{name}.s" in m:
            m[f"{name}.s"] += sp["s"]
        for count in ("path_steps", "grid_steps", "grid_points"):
            if count in sp and f"{name}.{count}" in m:
                m[f"{name}.{count}"] += sp[count]
        if name in _BY_DIM and sp.get("n") in DIMS:
            m[f"{name}.s.n{sp['n']}"] += sp["s"]
        if name == "bpi.solve_tracking" and sp["n"] in DIMS:
            m[f"bpi.iterations.n{sp['n']}"] += sp["iterations"]
        if name in ("learner.learn_feedback", "learner.learn_shadow"):
            m["learner.iterations"] += sp["iterations"]
    for name in _EM:
        if incl.get(name):
            m[f"{name}.path_steps_per_s"] = m[f"{name}.path_steps"] / incl[name]
    m["cli.payload_bytes"] = doc["payload_bytes"]
    m["pipeline.gains_s"] = doc["gains_s"]
    m["trace.unattributed_s"] = doc["wall_s"] - sum(sp["s"] for sp in doc["spans"])
    return m


def speed(doc: dict, exponent: float) -> float:
    """Factor taking a time measured in a worker to the reference speed."""
    return (CALIBRATION_REF_S / statistics.median(doc["calibration_s"])) ** exponent


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    from checks import Checker
    raws = []
    for cfg in WORKLOADS[name]:
        with open(os.path.join(HERE, "configs", cfg + ".json"), encoding="utf-8") as f:
            raws.append(apply_seed(json.load(f), seed, name not in FIXED_ENSEMBLE))
    work = os.path.join(OUT, f"{name}-seed{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        cfg_paths = []
        for cfg, raw in zip(WORKLOADS[name], raws):
            cfg_paths.append(os.path.join(work, cfg + ".json"))
            with open(cfg_paths[-1], "w", encoding="utf-8") as f:
                json.dump(raw, f)
        checker = Checker(name, raws)
        setups, calibration = [], []
        for i in range(SETUP_PROBES):
            t_spawn, doc = spawn(work, f"setup{i}", cfg_paths, ["--setup-only"])
            setups.append((doc["ready"] - t_spawn) * speed(doc, SETUP_EXPONENT))
            calibration += doc["calibration_s"]
        plain, traced, accs, errors = [], [], [], []
        attempted = 0
        t_start = time.monotonic()
        k = 0
        while True:
            t_round = time.monotonic()
            for tr in ((False, True) if trace else (False,)):
                t_spawn, doc = spawn(work, f"pass{k}", cfg_paths, ["--trace"] if tr else [])
                k += 1
                setups.append((doc["ready"] - t_spawn) * speed(doc, SETUP_EXPONENT))
                calibration += doc["calibration_s"]
                attempted += doc["attempted"]
                errors += doc["failed"]
                (traced if tr else plain).append(doc)
                acc = checker.check_pass(doc["payloads"], doc["payload_sha256"],
                                         os.path.join(work, "reports")) \
                    if not doc["failed"] else {}
                if tr:
                    missing = set(EXPECTED_SPANS[name]) - set(doc["traced"])
                    checker.expect("expected spans fired", not missing,
                                   ", ".join(sorted(missing)))
                    ens = os.path.join(work, "ensemble_0.npz")
                    if name == "mc_learn" and not doc["failed"]:
                        with np.load(ens) as data:
                            acc["acc.ens_moment_max_z"] = checker.check_ensemble(dict(data))
                        os.remove(ens)
                    accs.append(acc)
            if time.monotonic() - t_start + (time.monotonic() - t_round) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    med = statistics.median
    if trace:
        rows = [layer_metrics(d) for d in traced]
        metrics = {key: med(r[key] for r in rows) for key in rows[0]}
        for key in accs[0]:
            metrics[key] = max(a.get(key, 0.0) for a in accs)
        metrics["calibration.s"] = med(calibration)
        metrics["pipeline.gains_s"] = med(d["gains_s"] for d in plain)
        metrics["trace.overhead_s"] = (med(d["wall_s"] for d in traced)
                                       - med(d["wall_s"] for d in plain))
        units = {n: u for n, u, _ in per_layer_metrics()}
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"spans-{name}-seed{seed}.json"), "w",
                  encoding="utf-8") as f:
            json.dump({"workload": name, "seed": seed, "environment": environment(),
                       "passes": [d["spans"] for d in traced]}, f)
    else:
        ok = [d for d in plain if not d["failed"]] or plain
        metrics = {"wall_s": med(d["wall_s"] * speed(d, SPEED_EXPONENT[name]) for d in ok),
                   "setup_s": med(setups),
                   "peak_rss_mb": med(d["peak_rss_mb"] for d in ok)}
        units = dict(END_TO_END)
    return {"correct": not checker.failures, "attempted": attempted,
            "failed": len(errors), "errors": errors, "failures": checker.failures,
            "checks": checker.count, "passes": len(plain),
            "pass_walls": [round(d["wall_s"], 3) for d in plain + traced],
            "calibration": [round(med(d["calibration_s"]), 4) for d in plain + traced],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "slqt", "__init__.py")):
        print(f"error: no slqt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    print("environment " + json.dumps(environment(), sort_keys=True), flush=True)
    if args.workload == "all":
        return run_all(args)
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def report(name: str, res: dict) -> None:
    for key, m in res["metrics"].items():
        print(f"{name:<13} {key:<40} {m['value']:<24.10g} {m['unit']}")
    print(f"{name:<13} {res['passes']} untraced pass(es), {res['attempted']} operations "
          f"attempted, {res['failed']} failed, {res['checks']} checks, "
          f"{len(res['failures'])} failed checks; raw pass walls {res['pass_walls']} s, "
          f"calibration medians {res['calibration']} s",
          flush=True)
    for line in res["errors"] + res["failures"]:
        print(f"{name:<13} FAILED {line}", file=sys.stderr)


def run_all(args) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(name, args.seed, args.seconds, bool(trace))
            report(name, res)
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            for key, m in res["metrics"].items():
                summary["metrics"][f"{name}/{key}"] = m
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
