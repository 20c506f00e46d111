"""Seed sweep of example 1's data-driven learner (not part of the test suite).

    PYTHONPATH=src python3 scripts/mc_seed_sweep.py --seeds 1-100 --label two-point \\
        --out sweep.json
    python3 scripts/mc_seed_sweep.py --gate gaussian.json two_point.json

The first form builds example 1's data-driven config from
``slqt.benchmarks.EXAMPLES`` (the ``learn`` run without its cost study,
with scenario 1's tracking under the learned gains), shifts every seed
by s * 100000 as ``perfbench/run.py`` ``apply_seed`` does, and runs
``run_experiment(validate=True)`` once per seed s. It prints one JSON
line per seed: the relative K error against the model-based K, the
largest F error over the reference cases (as a share of the largest
entry of the model-based F), the phase-II outcome and the settled
tracking RMS. ``--out`` writes those rows and their summary.

The second form compares two such files, a baseline and a candidate,
and prints whether the candidate passes the adoption gate (GATE): at
most one more phase-II failure, median K and F errors at most 1.1 times
the baseline's, and at most two more seeds with K error above 5% or
settled RMS above 0.5. It exits 1 if the gate fails.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

import numpy as np

SEED_STRIDE = 100_000
K_BAND = 0.05
RMS_BAND = 0.5
GATE = {"failures_more": 1, "median_ratio": 1.1, "count_more": 2}


def sweep_config(seed: int) -> dict:
    """Example 1's learn run as a data-driven run with scenario-1 tracking,
    every seed shifted by seed * SEED_STRIDE."""
    from slqt.benchmarks import EXAMPLES
    base, runs = EXAMPLES["one"]
    raw = copy.deepcopy(base)
    raw["mode"] = runs["learn"]["mode"]
    raw["data_source"] = copy.deepcopy(runs["learn"]["data_source"])
    raw["tracking"] = copy.deepcopy(runs["scenario1"]["tracking"])
    off = seed * SEED_STRIDE
    raw["sim"]["base_seed"] += off
    for seg in raw["segments"]:
        seg["base_seed"] += off
    raw["tracking"]["base_seed"] += off
    return raw


def run_seed(seed: int) -> dict:
    from slqt.bpi import feedforward_gains
    from slqt.cli import run_experiment
    from slqt.config import parse_experiment_config
    from slqt.errors import SlqtError

    cfg = parse_experiment_config(sweep_config(seed))
    row = {"seed": seed}
    try:
        p = run_experiment(cfg, validate=True).payload
    except SlqtError as e:
        return {**row, "outcome": type(e).__name__, "K_rel_err": None,
                "F_max_rel_err": None, "settled_rms": None}
    K, P = np.asarray(p["model_based"]["K_star"]), np.asarray(p["model_based"]["P_star"])
    K_hat = np.asarray(p["data_driven"]["K_hat"])
    f_errs = []
    for case in p["feedforward_cases"]:
        _, F = feedforward_gains(cfg.plant, cfg.cost, cfg.reference_for_case(case["case"]),
                                 P, K)
        f_errs.append(float(np.abs(np.asarray(case["F"]) - F).max() / np.abs(F).max()))
    return {**row, "outcome": "settled",
            "K_rel_err": float(np.linalg.norm(K_hat - K) / np.linalg.norm(K)),
            "F_max_rel_err": max(f_errs),
            "settled_rms": p["tracking"]["max_settled_rms"]}


def summarize(rows: list) -> dict:
    ok = [r for r in rows if r["outcome"] == "settled"]
    k = np.array([r["K_rel_err"] for r in ok])
    f = np.array([r["F_max_rel_err"] for r in ok])
    rms = np.array([r["settled_rms"] for r in ok])
    return {"seeds": len(rows),
            "phase2_failures": [r["seed"] for r in rows if r["outcome"] != "settled"],
            "K_median": float(np.median(k)), "K_p90": float(np.percentile(k, 90)),
            "K_max": float(k.max()), "K_above_5pct": int((k > K_BAND).sum()),
            "F_median": float(np.median(f)), "F_p90": float(np.percentile(f, 90)),
            "F_max": float(f.max()),
            "rms_median": float(np.median(rms)), "rms_above_0.5": int((rms > RMS_BAND).sum())}


def gate(base: dict, cand: dict) -> dict:
    """Each clause of the adoption gate, candidate against baseline."""
    g = GATE
    return {
        "phase2_failures": len(cand["phase2_failures"])
        <= len(base["phase2_failures"]) + g["failures_more"],
        "K_median": cand["K_median"] <= g["median_ratio"] * base["K_median"],
        "F_median": cand["F_median"] <= g["median_ratio"] * base["F_median"],
        "K_above_5pct": cand["K_above_5pct"] <= base["K_above_5pct"] + g["count_more"],
        "rms_above_0.5": cand["rms_above_0.5"] <= base["rms_above_0.5"] + g["count_more"],
    }


def _seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _summary_of(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["summary"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-100", help="inclusive range, e.g. 1-100")
    ap.add_argument("--label", default="", help="name of the increment law swept")
    ap.add_argument("--out", help="write the rows and their summary here")
    ap.add_argument("--gate", nargs=2, metavar=("BASELINE", "CANDIDATE"),
                    help="compare two sweep files instead of sweeping")
    args = ap.parse_args(argv)
    if args.gate:
        base, cand = (_summary_of(p) for p in args.gate)
        clauses = gate(base, cand)
        print(json.dumps({"gate": clauses, "passed": all(clauses.values())}))
        return 0 if all(clauses.values()) else 1
    rows = []
    for s in _seeds(args.seeds):
        rows.append(run_seed(s))
        print(json.dumps(rows[-1]), flush=True)
    summary = summarize(rows)
    print(json.dumps(summary))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"label": args.label, "seeds": args.seeds, "summary": summary,
                       "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
