"""Experiment runner turning JSON configs into reports and trace files.

One subcommand per mode: ``solve`` (model-based, with the config's
tracking and cost study), ``learn-ff`` (feedback plus feedforward
learning from moments) and ``shadow`` (learning without plant
excitation), plus the two bundled benchmark reproductions and the
canonical re-emit of a report. Every run is a raw JSON config (the
--config file, or one of the bundled examples in
``benchmarks.EXAMPLES``) into which the subcommand writes its mode and
the --seed and --paths flags; it is then parsed once (``slqt.config``)
and run through ``run_experiment``, one report per run. The report echoes that config, so rerunning a report's
config (with --validate-with-model if the run had it) reproduces its
payload. Reports are canonical JSON with sorted keys and
17-significant-digit numbers, so identical configs and seeds produce
byte-identical payloads, with or without --out (``tracking.file`` names
the CSV that --out gets); wall-clock fields live outside the payload.
Every run prints one summary (``_summary``): a line per result block
its payload holds; the examples print each run's name before it.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .benchmarks import EXAMPLES, gather_moments
from .bpi import feedforward_gains, noise_blind_design, solve_tracking
from .config import (ExperimentConfig, _block, _integer, _known, load_config,
                     parse_experiment_config, read_config)
from .errors import ConfigError, MaxIterExceeded, RankDeficient, SlqtError
from .learner import (LearnedSolution, learn_feedback, learn_feedforward,
                      learn_shadow, shadow_regressors)
from .model import (StabilityCertificate, TrackingProblem, is_stabilizing,
                    spectral_abscissa)
from .regressors import RankReport, feedback_required_rank, rank_report
from .sim import estimate_average_cost, simulate_tracking
from .solvers import sare_residual
from .symquad import h_form_rows

__all__ = ["EXIT_CODES", "ExperimentConfig", "RunReport", "canonical_json",
           "emit_report", "exit_code_for", "load_config", "load_report",
           "main", "parse_experiment_config", "run_experiment"]

REPORT_SCHEMA = "slqt-report/1"

_CSV_ROWS = 4096  # CSV rows formatted per write

EXIT_CODES = {"ok": 0, "config": 2, "rank": 3, "numerical": 4, "contract": 5}


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, RankDeficient):
        return EXIT_CODES["rank"]
    if isinstance(exc, MaxIterExceeded):
        return EXIT_CODES["contract"]
    if isinstance(exc, ConfigError):
        return EXIT_CODES["config"]
    if isinstance(exc, SlqtError):
        return EXIT_CODES["numerical"]
    return 1


# ---------------------------------------------------------------------------
# Canonical JSON


def _pyify(obj):
    if isinstance(obj, np.ndarray):
        return _pyify(obj.tolist())
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    return obj


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):  # 16 ns a call against 0.58 µs for np.isfinite
        raise ConfigError(f"report values must be finite, got {v!r}")
    # 17 significant digits roundtrip binary64 exactly; -0.0 normalizes
    return "0" if v == 0.0 else format(v, ".17g")


def _encode(obj, out: list) -> None:
    if isinstance(obj, float):  # most of a payload, so tested first
        out.append(_fmt_float(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for j, k in enumerate(sorted(obj)):
            if not isinstance(k, str):
                raise ConfigError("report keys must be strings")
            if j:
                out.append(",")
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(":")
            _encode(obj[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for j, v in enumerate(obj):
            if j:
                out.append(",")
            _encode(v, out)
        out.append("]")
    else:
        raise ConfigError(f"cannot encode {type(obj).__name__} in a report")


def canonical_json(obj) -> str:
    out: list = []
    _encode(_pyify(obj), out)
    return "".join(out)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class RunReport:
    """Everything one experiment produced, ready for serialization.

    ``payload`` holds only numbers reproducible from (config, seeds);
    timestamps and stage timings sit beside it so payload bytes compare
    equal across reruns.
    """

    payload: dict = field(default_factory=dict)
    timing_s: dict = field(default_factory=dict)
    created: str = ""
    failed: bool = False
    error: dict | None = None

    def document(self) -> dict:
        doc = {"schema": REPORT_SCHEMA, "created": self.created,
               "failed": self.failed, "timing_s": self.timing_s,
               "payload": self.payload}
        if self.error is not None:
            doc["error"] = self.error
        return doc

    def payload_text(self) -> str:
        return canonical_json(self.payload)


def emit_report(report: RunReport, out_dir: str) -> list:
    """Write report.json and the CSV traces derivable from the payload."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as f:
        f.write(canonical_json(report.document()))
        f.write("\n")
    written = [path]
    for key in ("model_based", "data_driven", "shadow"):
        block = report.payload.get(key)
        if isinstance(block, dict) and block.get("trace"):
            path = os.path.join(out_dir, f"{key}_trace.csv")
            _write_trace_csv(path, block["trace"])
            written.append(path)
    cases = report.payload.get("feedforward_cases")
    if cases:
        path = os.path.join(out_dir, "ff_cases.csv")
        _write_ff_csv(path, cases)
        written.append(path)
    return written


def load_report(path: str) -> RunReport:
    doc = read_config(path, "report")
    if not isinstance(doc, dict):
        raise ConfigError(f"a report is a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != REPORT_SCHEMA:
        raise ConfigError(f"unsupported report schema {doc.get('schema')!r}")
    return RunReport(payload=doc.get("payload", {}),
                     timing_s=doc.get("timing_s", {}),
                     created=doc.get("created", ""),
                     failed=bool(doc.get("failed", False)),
                     error=doc.get("error"))


def _finalize(report: RunReport, out_dir: str | None) -> RunReport:
    report.created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if out_dir:
        emit_report(report, out_dir)
    return report


def _error_block(exc: SlqtError) -> dict:
    """The error's type and message plus each figure it carries, by its type."""
    detail = {}
    for name, value in vars(exc).items():
        if isinstance(value, RankReport):
            detail["rank"] = _rank_payload(value)
        elif isinstance(value, StabilityCertificate):
            detail[name] = _cert_payload(value)
        elif isinstance(value, list):  # an iterate trace
            detail[name] = _iterate_rows(value)
        elif value is not None:
            detail[name] = _pyify(value)
    try:
        canonical_json(detail)
    except ConfigError:  # a non-finite figure must not keep the report unwritten
        detail = {}
    return {"type": type(exc).__name__, "message": str(exc), **detail}


def _guarded(report: RunReport, out_dir: str | None, work) -> RunReport:
    """Run ``work``; on pipeline failure flush what exists, marked failed."""
    try:
        work()
    except SlqtError as e:
        report.failed = True
        report.error = _error_block(e)
        _finalize(report, out_dir)
        raise
    return _finalize(report, out_dir)


@contextmanager
def _timed(report: RunReport, stage: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        report.timing_s[stage] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# CSV writers


def _write_csv(path: str, header: list, values, index=None) -> None:
    """Write rows of leading integer columns (index) and float columns.

    values is a (rows, k) array of floats and index the (rows, j) integer
    columns written before them (none by default). Every value is checked
    before the file is opened, so a refusal leaves no file behind. Each
    row is one str.format: integers as such, floats with 17 significant
    digits (they roundtrip binary64) and -0.0 as 0, as in the report.
    """
    values = np.asarray(values, dtype=float)
    index = (np.empty((values.shape[0], 0), dtype=np.int64) if index is None
             else np.asarray(index, dtype=np.int64))
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise ConfigError(f"report values must be finite, got {float(values[r, c])!r} "
                          f"in column {header[index.shape[1] + c]!r} of row {r + 1} "
                          f"of {os.path.basename(path)}")
    values = values + 0.0
    fmt = ",".join(["{:d}"] * index.shape[1] + ["{:.17g}"] * values.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for s in range(0, values.shape[0], _CSV_ROWS):
            rows = zip(index[s:s + _CSV_ROWS].tolist(), values[s:s + _CSV_ROWS].tolist())
            f.write("".join([fmt.format(*i, *v) for i, v in rows]))


def _write_trace_csv(path: str, trace_rows: list) -> None:
    K0 = np.asarray(trace_rows[0]["K"], dtype=float)
    n = np.asarray(trace_rows[0]["P"], dtype=float).shape[0]
    m = K0.shape[0]
    ri, ci = np.triu_indices(n)
    header = (["iteration", "phase", "alpha"]
              + [f"k_{a + 1}{b + 1}" for a in range(m) for b in range(n)]
              + [f"p_{a + 1}{b + 1}" for a, b in zip(ri, ci)])
    body = [[r["alpha"], *np.asarray(r["K"], dtype=float).ravel(),
             *np.asarray(r["P"], dtype=float)[ri, ci]] for r in trace_rows]
    _write_csv(path, header, body, [[r["iteration"], r["phase"]] for r in trace_rows])


def _write_ff_csv(path: str, case_rows: list) -> None:
    width = np.asarray(case_rows[0]["F"], dtype=float).size
    header = ["case"] + [f"f_{j + 1}" for j in range(width)]
    body = [np.asarray(row["F"], dtype=float).ravel() for row in case_rows]
    _write_csv(path, header, body, [[row["case"]] for row in case_rows])


def _write_tracking_csv(path: str, run) -> None:
    q = run.y_mean.shape[1]
    m = run.u_mean.shape[1]
    header = (["t"] + [f"y_{j + 1}" for j in range(q)]
              + [f"y_d_{j + 1}" for j in range(q)]
              + [f"u_{j + 1}" for j in range(m)])
    body = np.hstack([run.t[:, None], run.y_mean, run.y_d, run.u_mean])
    _write_csv(path, header, body)


# ---------------------------------------------------------------------------
# Payload builders


def _matrix(M) -> list:
    return np.asarray(M, dtype=float).tolist()


def _rank_payload(rep) -> dict:
    return {"rank": int(rep.rank), "required_rank": int(rep.required_rank),
            "margin": float(rep.margin), "tol": float(rep.tol),
            "singular_values": [float(s) for s in rep.singular_values]}


def _cert_payload(cert) -> dict:
    return {"stabilizing": bool(cert.stabilizing),
            "abscissa": float(cert.abscissa),
            "alpha": None if cert.alpha is None else float(cert.alpha),
            "margin": float(cert.margin)}


_DIAGNOSTICS = ("residual", "condition", "abscissa")


def _iterate_rows(states) -> list:
    return [{"iteration": int(st.index), "phase": int(st.phase),
             "alpha": float(st.alpha), "K": _matrix(st.K), "P": _matrix(st.P),
             **{k: float(getattr(st, k)) for k in _DIAGNOSTICS
                if getattr(st, k) is not None}}
            for st in states]


def _payload_model(config: ExperimentConfig):
    """(solution, per-case feedforward rows, block) of the model-based solve."""
    plant, cost = config.plant, config.cost
    sol = solve_tracking(TrackingProblem(system=plant, reference=config.reference,
                                         cost=cost, hyper=config.hyper))
    hist = sol.history
    trace = _iterate_rows(list(hist["phase1"]) + list(hist["phase2"]))
    case_rows = []
    for k, row in enumerate(config.h_d_cases, start=1):
        Pi, F = feedforward_gains(plant, cost, config.reference_for_case(k),
                                  sol.P, sol.K)
        case_rows.append({"case": k, "H_d": _matrix(row), "F": _matrix(F),
                          "Pi": _matrix(Pi)})
    block = {
        "K_star": _matrix(sol.K), "P_star": _matrix(sol.P),
        "Lambda_star": _matrix(sol.Lambda), "Pi_star": _matrix(sol.Pi),
        "F_star": _matrix(sol.F),
        "sare_residual": float(sare_residual(plant, cost, sol.P)),
        "closed_loop_abscissa": float(spectral_abscissa(plant, sol.K)),
        "zero_gain_threshold": float(hist["zero_gain_threshold"]),
        "crossing_iteration": len(hist["phase1"]),
        "iterations": len(trace),
        "alpha_trace": [float(st.alpha) for st in hist["phase1"]],
        "certification": "validated",
        "trace": trace,
    }
    return sol, case_rows, block


def _payload_learned(learned: LearnedSolution) -> dict:
    return {
        "K_hat": _matrix(learned.K_star), "P_hat": _matrix(learned.P_star),
        "Lambda_hat": _matrix(learned.Lambda_star),
        "alpha_trace": [float(st.alpha) for st in learned.trace],
        "crossing_iteration": int(learned.crossing_iteration),
        "total_iterations": int(learned.total_iterations),
        "rank": {"feedback": _rank_payload(learned.rank)},
        "trace": _iterate_rows(learned.trace),
    }


def _certification(config: ExperimentConfig, learned: LearnedSolution,
                   validate: bool) -> dict:
    """Without validate, the model-free tag; with it, the plant's certificate
    of each learned iterate at its level (alpha in phase I, capped at gamma)."""
    if not validate:
        return {"certification": "uncertified (model-free)"}
    gamma = config.hyper.gamma
    return {"certification": "validated",
            "certificates": [_cert_payload(is_stabilizing(
                config.plant, st.K, alpha=min(st.alpha, gamma), gamma=gamma))
                for st in learned.trace]}


def _vs_model(learned: LearnedSolution, sol) -> dict:
    dK = np.asarray(learned.K_star) - np.asarray(sol.K)
    dP = np.asarray(learned.P_star) - np.asarray(sol.P)
    return {"K_star_model": _matrix(sol.K),
            "K_max_abs_err": float(np.abs(dK).max()),
            "P_max_abs_err": float(np.abs(dP).max()),
            "K_rel_err_2norm": float(np.linalg.norm(dK) / np.linalg.norm(sol.K))}


def _ff_case_fits(config: ExperimentConfig, moments, learned, omega_F) -> list:
    """The learned per-case feedforward rows."""
    cases = config.h_d_cases
    fits = learn_feedforward(moments, learned.K_star, learned.Lambda_star,
                             config.cost, config.hyper, cases, omega_F=omega_F)
    return [{"case": k, "H_d": _matrix(row), "F": _matrix(fit.F),
             "Pi": _matrix(fit.Pi), "residual": float(fit.residual),
             "rank": _rank_payload(fit.rank)}
            for k, (row, fit) in enumerate(zip(cases, fits), start=1)]


def _run_tracking(config: ExperimentConfig, K, case_rows, out_dir) -> dict:
    tr, ref = config.tracking, config.reference
    sched = [(config.h_d_cases[c - 1], case_rows[c - 1]["F"], d) for c, d in tr["schedule"]]
    run = simulate_tracking(config.plant, ref.A_d, ref.x_d0, sched, K,
                            np.zeros(config.plant.n), tr["h"], tr["n_paths"],
                            tr["base_seed"])
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_tracking_csv(os.path.join(out_dir, "tracking.csv"), run)
    bounds = [0.0, *run.switch_times, float(run.t[-1])]
    segs = []
    for j, (case, _) in enumerate(tr["schedule"]):
        a, b = bounds[j], bounds[j + 1]
        span = (run.t >= a) & (run.t <= b)
        err = run.y_mean[span] - run.y_d[span]
        tail = (run.t >= b - 0.2 * (b - a)) & (run.t <= b)
        tail_err = run.y_mean[tail] - run.y_d[tail]
        segs.append({"case": case, "start": float(a), "end": float(b),
                     "rms_error": float(np.sqrt(np.mean(err ** 2))),
                     "settled_rms_error": float(np.sqrt(np.mean(tail_err ** 2)))})
    return {"file": "tracking.csv", "h": tr["h"], "n_paths": tr["n_paths"],
            "base_seed": tr["base_seed"], "segments": segs,
            "max_settled_rms": max(s["settled_rms_error"] for s in segs)}


def _cost_comparison(config: ExperimentConfig, sol, F_opt) -> dict:
    """Average tracking cost of the noise-aware design (sol.K and the model
    route's feedforward F_opt of the study's case, as nested lists) against
    a design that pretended the noise channels were absent."""
    plant, cost, options = config.plant, config.cost, config.cost_comparison
    ref_k = config.reference_for_case(options["case"])
    blind = noise_blind_design(TrackingProblem(plant, ref_k, cost, config.hyper))
    # one pass drives both designs with the same noise paths (common random
    # numbers), so the separation is the mean per-path difference over its
    # own SE
    c_opt, c_det = estimate_average_cost(
        plant, ref_k, [(sol.K, F_opt), (blind.K, blind.F)], cost, options["horizon"],
        options["n_paths"], options["seed"], h=options["h"])
    d = c_det.per_path - c_opt.per_path
    sep = d.mean() / (d.std() / np.sqrt(d.size - 1))
    return {**options,
            "noise_aware": {"K": _matrix(sol.K), "F": _matrix(F_opt),
                            "mean": c_opt.mean, "se": c_opt.se},
            "deterministic_design": {"K": _matrix(blind.K), "F": _matrix(blind.F),
                                     "mean": c_det.mean, "se": c_det.se},
            "separation_se": float(sep)}


# ---------------------------------------------------------------------------
# Pipelines


def run_experiment(config: ExperimentConfig, out_dir: str | None = None,
                   validate: bool = False) -> RunReport:
    """Run the configured mode end to end, writing report and traces."""
    report = RunReport()
    report.payload["config"] = _pyify(config.raw)
    report.payload["mode"] = config.mode

    def work():
        with_model = config.mode == "model_based" or validate
        if config.cost_comparison is not None and not with_model:
            raise ConfigError(
                "cost_comparison needs the model-based solution; use mode "
                "model_based or pass validate")
        # tracking uses the model gains in model_based mode and the
        # learned gains otherwise
        sol = None
        if with_model:
            with _timed(report, "model_based"):
                sol, model_rows, report.payload["model_based"] = _payload_model(config)
            K, rows = sol.K, model_rows
        if config.mode != "model_based":
            with _timed(report, "collect"):
                moments = gather_moments(config, mode=config.data_source["kind"])
            omega_F, flags = None, {}
            if config.mode == "shadow":
                with _timed(report, "shadow_rows"):
                    omegas = shadow_regressors(config.shadow, config.plant.B,
                                               config.cost.R, moments.t_global,
                                               moments.window)
                with _timed(report, "learn_shadow"):
                    learned = learn_shadow(moments, config.shadow, config.plant.B,
                                           config.cost, config.hyper, omegas=omegas)
                    cert = _certification(config, learned, validate)
                flags = _shadow_flags(moments)
                omega_F = omegas[1]
            else:
                with _timed(report, "learn_feedback"):
                    learned = learn_feedback(moments, config.cost, config.hyper)
                    cert = _certification(config, learned, validate)
            block = {**_payload_learned(learned), **cert, **flags}
            if sol is not None:
                block["vs_model"] = _vs_model(learned, sol)
            report.payload[config.mode] = block
            with _timed(report, "learn_feedforward"):
                rows = _ff_case_fits(config, moments, learned, omega_F)
            K = learned.K_star
        report.payload["feedforward_cases"] = rows
        if config.tracking is not None:
            with _timed(report, "tracking"):
                report.payload["tracking"] = _run_tracking(config, K, rows, out_dir)
        if config.cost_comparison is not None:
            with _timed(report, "cost_comparison"):
                report.payload["cost_comparison"] = _cost_comparison(
                    config, sol, model_rows[config.cost_comparison["case"] - 1]["F"])

    return _guarded(report, out_dir, work)


def _shadow_flags(moments) -> dict:
    peak = max(float(np.abs(moments.W).max(initial=0.0)),
               float(np.abs(moments.V).max(initial=0.0)))
    n, m = moments.n, moments.m
    unaug = rank_report(
        np.hstack([h_form_rows(moments.S), np.zeros((len(moments), n * m))]),
        feedback_required_rank(n, m, with_lambda=False))
    return {"plant_input_zero": peak == 0.0, "max_abs_input_moment": peak,
            "unaugmented_rank": _rank_payload(unaug)}


# ---------------------------------------------------------------------------
# Command handlers


def _with_flags(raw, args, mode: str | None = None) -> dict:
    """A copy of ``raw`` with ``mode`` and the --seed and --paths flags
    written in, so the config a report echoes reruns its run without them.

    --seed is added to ``sim.base_seed`` and to every segment's explicit
    ``base_seed``; --paths becomes ``sim.n_paths``.
    """
    raw = copy.deepcopy(_known(raw, ""))
    if mode is not None:
        raw["mode"] = mode
    if args.seed or args.paths is not None:
        sim = raw["sim"] = _block(raw, "sim") or {}
        if args.paths is not None:
            sim["n_paths"] = args.paths
        if args.seed:
            sim["base_seed"] = _integer(sim, "base_seed", 0) + args.seed
            segs = raw.get("segments")
            for seg in segs if isinstance(segs, list) else ():
                if isinstance(seg, dict) and "base_seed" in seg:
                    seg["base_seed"] = _integer(seg, "base_seed") + args.seed
    return raw


def _summary(p) -> str:
    """One line for each result block the payload holds."""
    lines = []
    if "model_based" in p:
        lines.append(f"model K* = {p['model_based']['K_star']}")
    learned = p.get("data_driven") or p.get("shadow")
    if learned:
        zero = ("" if "plant_input_zero" not in learned
                else f", plant input zero: {learned['plant_input_zero']}")
        lines.append(f"learned K^ = {learned['K_hat']} (crossing at iteration "
                     f"{learned['crossing_iteration']}{zero})")
    lines.append(f"feedforward gains for {len(p['feedforward_cases'])} case(s)")
    if "tracking" in p:
        lines.append(f"tracking settled RMS error: {p['tracking']['max_settled_rms']:.6g}")
    if "cost_comparison" in p:
        cc = p["cost_comparison"]
        lines.append(f"average cost {cc['noise_aware']['mean']:.6g} (noise aware) "
                     f"vs {cc['deterministic_design']['mean']:.6g} (noise blind)")
    return "\n".join(lines)


def _cmd_run(mode: str):
    """Handler running the --config experiment in ``mode``, then printing
    its summary."""
    def handler(args) -> int:
        cfg = parse_experiment_config(_with_flags(read_config(args.config), args, mode))
        print(_summary(run_experiment(cfg, out_dir=args.out, validate=args.validate).payload))
        return 0

    return handler


def _cmd_example(which):
    """Handler running each run of the example, printing its name and summary."""
    def handler(args) -> int:
        base, runs = EXAMPLES[which]
        for name, blocks in runs.items():
            cfg = parse_experiment_config(_with_flags({**base, **blocks}, args))
            out = os.path.join(args.out, name) if args.out else None
            print(f"{name}:")
            print(_summary(run_experiment(cfg, out_dir=out, validate=True).payload))
        return 0

    return handler


def _cmd_report(args) -> int:
    rep = load_report(args.path)
    text = canonical_json(rep.document()) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slqt",
        description="Stochastic linear-quadratic tracking: model-based "
                    "solves, data-driven learning, and benchmark runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, needs_config=True, takes_validate=False):
        q = sub.add_parser(name, help=help_text)
        if needs_config:
            q.add_argument("--config", required=True,
                           help="experiment config JSON file")
        q.add_argument("--out", default=None, help="output directory")
        q.add_argument("--seed", type=int, default=None,
                       help="offset added to sim.base_seed and every segment "
                            "base_seed, written into the echoed config")
        q.add_argument("--paths", type=int, default=None,
                       help="ensemble path count, written into the config "
                            "as sim.n_paths")
        if takes_validate:
            q.add_argument("--validate-with-model", action="store_true",
                           dest="validate",
                           help="compute stability certificates from the "
                                "configured plant matrices")
        else:
            q.set_defaults(validate=True)  # the other subcommands always do
        q.set_defaults(func=fn)

    add("solve", _cmd_run("model_based"),
        "model-based solve, then the config's tracking and cost study")
    add("learn-ff", _cmd_run("data_driven"),
        "feedback plus feedforward learning", takes_validate=True)
    add("shadow", _cmd_run("shadow"),
        "learning without plant excitation", takes_validate=True)
    add("example1", _cmd_example("one"),
        "reproduce the damped-oscillator benchmark", needs_config=False)
    add("example2", _cmd_example("two"),
        "reproduce the coupled-oscillator shadow benchmark",
        needs_config=False)
    rep = sub.add_parser("report", help="re-emit a report canonically")
    rep.add_argument("path", help="path to an existing report.json")
    rep.add_argument("--out", default=None, help="output file")
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the refusals on a run's route test the values themselves, so
        # numpy's overflow warnings would only precede the one error line
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except SlqtError as e:
        print(f"error: {e}", file=sys.stderr)
        return exit_code_for(e)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
