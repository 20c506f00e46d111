"""Experiment runner turning JSON configs into reports and trace files.

Subcommands cover each pipeline stage (model-based solve,
feedback/feedforward learning, shadow learning, tracking demos) plus
the two bundled benchmark reproductions and the canonical re-emit of a
report. Every stage runs through ``run_experiment``; an example is a
fixed list of experiment configs built from its bundle, one report per
run. Reports are
canonical JSON with sorted keys and 17-significant-digit numbers, so
identical configs and seeds produce byte-identical payloads; wall-clock
fields live outside the payload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_continuous_are

from .benchmarks import coupled_oscillators, damped_oscillator, gather_moments
from .bpi import feedforward_gains, solve_tracking
from .errors import (Blowup, ConfigError, DivergedAlpha, MaxIterExceeded,
                     NotStabilizing, RankDeficient, SingularOperator, SlqtError)
from .learner import (LearnedSolution, ShadowConfig, learn_feedback,
                      learn_feedforward, learn_shadow, shadow_regressors)
from .model import (BpiHyperParams, CostWeights, ReferenceGenerator,
                    StochasticSystem, TrackingProblem, spectral_abscissa)
from .regressors import feedback_required_rank, rank_report
from .sim import (SimConfig, _step_count, estimate_average_cost, probing_signal,
                  simulate_tracking)
from .solvers import sare_residual
from .symquad import h_form_rows

__all__ = ["EXIT_CODES", "ExperimentConfig", "RunReport", "canonical_json",
           "emit_report", "exit_code_for", "load_config", "load_report",
           "main", "parse_experiment_config", "run_experiment"]

REPORT_SCHEMA = "slqt-report/1"

EXIT_CODES = {"ok": 0, "config": 2, "rank": 3, "numerical": 4, "contract": 5}


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, RankDeficient):
        return EXIT_CODES["rank"]
    if isinstance(exc, MaxIterExceeded):
        return EXIT_CODES["contract"]
    if isinstance(exc, (ConfigError, json.JSONDecodeError)):
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
    if not np.isfinite(v):
        raise ConfigError(f"report values must be finite, got {v!r}")
    # 17 significant digits roundtrip binary64 exactly; -0.0 normalizes
    return "0" if v == 0.0 else format(v, ".17g")


def _encode(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
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
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
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
    """The error's type and message plus the figures it carries."""
    detail = {}
    if isinstance(exc, RankDeficient) and exc.report is not None:
        detail["rank"] = _rank_payload(exc.report)
    elif isinstance(exc, (MaxIterExceeded, DivergedAlpha)) and exc.trace is not None:
        detail["trace"] = _iterate_rows(exc.trace)
    elif isinstance(exc, Blowup):
        detail = {k: v for k, v in (("time", exc.time), ("path_index", exc.path_index))
                  if v is not None}
    elif isinstance(exc, NotStabilizing) and exc.abscissa is not None:
        detail["abscissa"] = float(exc.abscissa)
    elif isinstance(exc, SingularOperator) and exc.certificate is not None:
        detail["certificate"] = _cert_payload(exc.certificate)
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


def _csv_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return _fmt_float(float(v))


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_csv_cell(v) for v in row) + "\n")


def _write_trace_csv(path: str, trace_rows: list) -> None:
    if not trace_rows:
        _write_csv(path, ["iteration", "phase", "alpha"], [])
        return
    K0 = np.asarray(trace_rows[0]["K"], dtype=float)
    n = np.asarray(trace_rows[0]["P"], dtype=float).shape[0]
    m = K0.shape[0]
    ri, ci = np.triu_indices(n)
    header = (["iteration", "phase", "alpha"]
              + [f"k_{a + 1}{b + 1}" for a in range(m) for b in range(n)]
              + [f"p_{a + 1}{b + 1}" for a, b in zip(ri, ci)])
    body = []
    for r in trace_rows:
        K = np.asarray(r["K"], dtype=float)
        P = np.asarray(r["P"], dtype=float)
        body.append([r["iteration"], r["phase"], r["alpha"],
                     *K.ravel(), *P[ri, ci]])
    _write_csv(path, header, body)


def _write_ff_csv(path: str, case_rows: list) -> None:
    width = np.asarray(case_rows[0]["F"], dtype=float).size
    header = ["case"] + [f"f_{j + 1}" for j in range(width)]
    body = [[row["case"], *np.asarray(row["F"], dtype=float).ravel()]
            for row in case_rows]
    _write_csv(path, header, body)


def _write_tracking_csv(path: str, run) -> None:
    q = run.y_mean.shape[1]
    m = run.u_mean.shape[1]
    header = (["t"] + [f"y_{j + 1}" for j in range(q)]
              + [f"y_d_{j + 1}" for j in range(q)]
              + [f"u_{j + 1}" for j in range(m)])
    body = np.hstack([run.t[:, None], run.y_mean, run.y_d, run.u_mean])
    _write_csv(path, header, body)


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class ExperimentConfig:
    """Parsed and dimension-checked experiment description."""

    mode: str
    plant: StochasticSystem
    reference: ReferenceGenerator
    cost: CostWeights
    hyper: BpiHyperParams
    sim: SimConfig
    probing: object | None
    segments: tuple
    h_d_cases: tuple
    data_source: dict
    shadow: ShadowConfig | None
    tracking: dict | None
    cost_comparison: dict | None
    output: str | None
    raw: dict


_PROBING_KEYS = {"amplitude", "count", "freq_range", "seed"}
# the keys each config block may hold; any other key is a ConfigError
_CONFIG_KEYS = {
    "": {"mode", "plant", "reference", "cost", "hyper", "sim", "probing",
         "segments", "data_source", "shadow", "tracking", "cost_comparison",
         "output"},
    "plant": {"A", "B", "C", "D", "H"},
    "reference": {"A_d", "H_d", "x_d0", "cases"},
    "cost": {"Q", "R"},
    "hyper": {"gamma", "alpha0", "eta", "theta", "epsilon", "max_iter", "stop_rule"},
    "sim": {"h", "T_s", "T", "t1", "l", "n_paths", "base_seed"},
    "probing": _PROBING_KEYS,
    "segments": {"x0", "t_offset", "base_seed"},
    "data_source": {"kind"},
    "shadow": {"A_a", "x_a0", "F_a", "y_a0", "probing", "h"},
    "shadow.probing": _PROBING_KEYS,
    "tracking": {"schedule", "h", "n_paths", "base_seed"},
    "cost_comparison": {"case", "horizon", "n_paths", "h", "seed"},
}


def _known(block, name: str) -> dict:
    """``block`` if it is a JSON object holding only keys of ``name``."""
    where = f"config block {name!r}" if name else "the config"
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - _CONFIG_KEYS[name])
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    return block


def _block(parent: dict, key: str, prefix: str = "",
           required: bool = False) -> dict | None:
    """The checked sub-block ``parent[key]``, or None when absent or null."""
    block = parent.get(key)
    if block is None and required:
        raise ConfigError(f"config needs a {key} block")
    return None if block is None else _known(block, prefix + key)


def _arr(block: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(block[key], dtype=float)
    except KeyError as e:
        raise ConfigError(f"missing config key {key!r}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config key {key!r} is not numeric") from e


def _integer(block: dict, key: str, default: int) -> int:
    v = block.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"config key {key!r} must be an integer, got {v!r}")
    return v


def _positive(block: dict, key: str, default: float) -> float:
    v = float(block.get(key, default))
    if not 0.0 < v < np.inf:
        raise ConfigError(f"config key {key!r} must be positive and finite, got {v!r}")
    return v


def _probing_from(block: dict):
    try:
        return probing_signal(float(block["amplitude"]), int(block["count"]),
                              block["freq_range"], int(block["seed"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad probing block: {e}") from e


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    """Check and build an experiment config.

    An unknown key anywhere, a block that is not a JSON object, and a
    value of the wrong type all raise ConfigError.
    """
    try:
        return _parse(_known(raw, ""))
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad config value: {e!r}") from e


def _parse(raw: dict) -> ExperimentConfig:
    mode = raw.get("mode", "model_based")
    if mode not in ("model_based", "data_driven", "shadow"):
        raise ConfigError(f"unknown mode {mode!r}")
    pb = _block(raw, "plant", required=True)
    plant = StochasticSystem(A=_arr(pb, "A"), B=_arr(pb, "B"), C=_arr(pb, "C"),
                             D=_arr(pb, "D"), H=_arr(pb, "H"))
    rb = _block(raw, "reference", required=True)
    reference = ReferenceGenerator(_arr(rb, "A_d"), _arr(rb, "H_d"),
                                   _arr(rb, "x_d0"))
    cb = _block(raw, "cost", required=True)
    cost = CostWeights(Q=np.atleast_2d(_arr(cb, "Q")),
                       R=np.atleast_2d(_arr(cb, "R")))
    hb = _block(raw, "hyper") or {}
    theta = hb.get("theta")
    hyper = BpiHyperParams(
        gamma=float(hb.get("gamma", 1.0)), alpha0=float(hb.get("alpha0", 0.1)),
        eta=float(hb.get("eta", 0.95)),
        theta=None if theta is None else np.asarray(theta, dtype=float),
        epsilon=float(hb.get("epsilon", 1e-5)),
        max_iter=int(hb.get("max_iter", 200)),
        stop_rule=hb.get("stop_rule", "gain"))
    # construct-and-discard: raises ConfigError on any dimension mismatch
    TrackingProblem(system=plant, reference=reference, cost=cost, hyper=hyper)

    sb = _block(raw, "sim") or {}
    sim = SimConfig(h=float(sb.get("h", 1e-4)),
                    sample_period=float(sb.get("T_s", 1e-3)),
                    window=float(sb.get("T", 0.1)),
                    t1=float(sb.get("t1", 0.0)), l=int(sb.get("l", 5001)),
                    n_paths=int(sb.get("n_paths", 2000)),
                    base_seed=int(sb.get("base_seed", 0)))
    prb = _block(raw, "probing")
    probing = _probing_from(prb) if prb else None

    segs = raw.get("segments")
    if segs is None:
        segments = ((np.zeros(plant.n), 0.0, sim.base_seed),)
    else:
        if not isinstance(segs, list) or not segs:
            raise ConfigError("segments must be a non-empty list of JSON objects")
        segments = []
        for s in segs:
            x0 = _arr(_known(s, "segments"), "x0").ravel()
            if x0.size != plant.n:
                raise ConfigError(
                    f"segment x0 has {x0.size} entries, plant has {plant.n} states")
            segments.append((x0, float(s.get("t_offset", 0.0)),
                             int(s.get("base_seed", sim.base_seed))))
        segments = tuple(segments)

    case_rows = rb.get("cases")
    if case_rows is None:
        h_d_cases = (reference.H_d,)
    else:
        h_d_cases = tuple(np.atleast_2d(np.asarray(r, dtype=float))
                          for r in case_rows)
        for r in h_d_cases:
            if r.shape[1] != reference.n_d:
                raise ConfigError(
                    f"case output map has {r.shape[1]} columns, "
                    f"reference has {reference.n_d} states")

    dsb = _block(raw, "data_source") or {}
    kind = dsb.get("kind", "ensemble")
    if kind not in ("ensemble", "exact"):
        raise ConfigError(f"unknown data_source kind {kind!r}")
    data_source = {"kind": kind}

    shb = _block(raw, "shadow")
    shadow = None
    if shb is not None:
        spb = _block(shb, "probing", "shadow.")
        if not spb:
            raise ConfigError("shadow block needs a probing signal")
        shadow = ShadowConfig(A_a=_arr(shb, "A_a"), u_a=_probing_from(spb),
                              x_a0=_arr(shb, "x_a0"), F_a=_arr(shb, "F_a"),
                              y_a0=_arr(shb, "y_a0"),
                              h=float(shb.get("h", 5e-6)))
    if mode == "shadow":
        if shadow is None:
            raise ConfigError("mode 'shadow' needs a shadow block")
        if np.abs(plant.D).max(initial=0.0) != 0.0:
            raise ConfigError("the shadow route requires D = 0")
        if plant.m != 1:
            raise ConfigError(f"the shadow route's probing input is scalar, "
                              f"so the plant needs one input, got {plant.m}")
        if probing is not None:
            raise ConfigError("the shadow route forbids plant probing input")

    tb = _block(raw, "tracking")
    tracking = None
    if tb is not None:
        try:
            schedule = [(int(c), float(d)) for c, d in tb["schedule"]]
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad tracking schedule: {e}") from e
        tracking = {"schedule": schedule, "h": _positive(tb, "h", 1e-3),
                    "n_paths": int(tb.get("n_paths", 200)),
                    "base_seed": int(tb.get("base_seed", 97))}
        for c, d in schedule:
            if not 1 <= c <= len(h_d_cases):
                raise ConfigError(f"tracking schedule case {c} out of range")
            _step_count(d, tracking["h"], "tracking duration")

    ccb = _block(raw, "cost_comparison")
    cost_comparison = None
    if ccb is not None:
        cost_comparison = {"case": _integer(ccb, "case", 8),
                           "horizon": _positive(ccb, "horizon", 50.0),
                           "n_paths": _integer(ccb, "n_paths", 2000),
                           "h": _positive(ccb, "h", 1e-3),
                           "seed": _integer(ccb, "seed", 314159)}
        if not 1 <= cost_comparison["case"] <= len(h_d_cases):
            raise ConfigError(f"cost_comparison case {cost_comparison['case']} out of range")
        if cost_comparison["n_paths"] < 2:  # one path has no standard error
            raise ConfigError("cost_comparison n_paths must be at least 2")
        _step_count(cost_comparison["horizon"], cost_comparison["h"],
                    "cost_comparison horizon")

    return ExperimentConfig(
        mode=mode, plant=plant, reference=reference, cost=cost, hyper=hyper,
        sim=sim, probing=probing, segments=segments, h_d_cases=h_d_cases,
        data_source=data_source, shadow=shadow, tracking=tracking,
        cost_comparison=cost_comparison, output=raw.get("output"), raw=raw)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    return parse_experiment_config(raw)


# ---------------------------------------------------------------------------
# Payload builders


def _matrix(M) -> list:
    return np.asarray(M, dtype=float).tolist()


def _rank_payload(rep) -> dict:
    return {"rank": int(rep.rank), "required_rank": int(rep.required_rank),
            "margin": float(rep.margin), "tol": float(rep.tol),
            "singular_values": [float(s) for s in rep.singular_values]}


def _cert_payload(cert) -> dict | None:
    if cert is None:
        return None
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


def _payload_model(plant, cost, hyper, reference, cases):
    """Model-based solve plus per-case feedforward gains."""
    problem = TrackingProblem(system=plant, reference=reference, cost=cost,
                              hyper=hyper)
    sol = solve_tracking(problem)
    hist = sol.history
    trace = _iterate_rows(list(hist["phase1"]) + list(hist["phase2"]))
    ff_by_case = {}
    ff_payload = []
    for k, row in enumerate(cases, start=1):
        ref_k = reference.with_output_map(row)
        Pi, F = feedforward_gains(plant, cost, ref_k, sol.P, sol.K)
        ff_by_case[k] = F
        ff_payload.append({"case": k, "H_d": _matrix(row), "F": _matrix(F),
                           "Pi": _matrix(Pi)})
    payload = {
        "K_star": _matrix(sol.K), "P_star": _matrix(sol.P),
        "Lambda_star": _matrix(sol.Lambda), "Pi_star": _matrix(sol.Pi),
        "F_star": _matrix(sol.F),
        "sare_residual": float(sare_residual(plant, cost, sol.P)),
        "closed_loop_abscissa": float(spectral_abscissa(plant, sol.K)),
        "zero_gain_threshold": float(hist["zero_gain_threshold"]),
        "crossing_iteration": int(hist["crossing_iteration"]),
        "iterations": len(trace),
        "alpha_trace": [float(a) for a in hist["alpha_trace"]],
        "certification": "validated",
        "trace": trace,
    }
    return sol, ff_by_case, ff_payload, payload


def _payload_learned(learned: LearnedSolution) -> dict:
    payload = {
        "K_hat": _matrix(learned.K_star), "P_hat": _matrix(learned.P_star),
        "Lambda_hat": _matrix(learned.Lambda_star),
        "alpha_trace": [float(st.alpha) for st in learned.trace],
        "crossing_iteration": int(learned.crossing_iteration),
        "total_iterations": int(learned.total_iterations),
        "residuals": [float(r) for r in learned.residuals],
        "certification": learned.certification,
        "rank": {"feedback": _rank_payload(learned.rank)},
        "trace": _iterate_rows(learned.trace),
    }
    if learned.certificates is not None:
        payload["certificates"] = [_cert_payload(c) for c in learned.certificates]
    return payload


def _vs_model(learned: LearnedSolution, sol) -> dict:
    dK = np.asarray(learned.K_star) - np.asarray(sol.K)
    dP = np.asarray(learned.P_star) - np.asarray(sol.P)
    return {"K_star_model": _matrix(sol.K),
            "K_max_abs_err": float(np.abs(dK).max()),
            "P_max_abs_err": float(np.abs(dP).max()),
            "K_rel_err_2norm": float(np.linalg.norm(dK) / np.linalg.norm(sol.K))}


def _ff_case_fits(moments, learned, cost, hyper, cases, omega_F):
    fits = learn_feedforward(moments, learned.K_star, learned.Lambda_star,
                             cost, hyper, cases, omega_F=omega_F)
    payload = [{"case": k, "H_d": _matrix(row), "F": _matrix(fit.F),
                "Pi": _matrix(fit.Pi), "residual": float(fit.residual),
                "rank": _rank_payload(fit.rank)}
               for k, (row, fit) in enumerate(zip(cases, fits), start=1)]
    return {k: fit.F for k, fit in enumerate(fits, start=1)}, payload


def _run_tracking(plant, reference, cases, K, ff_by_case, schedule, h,
                  n_paths, base_seed, out_dir, filename) -> dict:
    sched = [(cases[c - 1], ff_by_case[c], float(d)) for c, d in schedule]
    run = simulate_tracking(plant, reference.A_d, reference.x_d0, sched, K,
                            np.zeros(plant.n), h, n_paths, base_seed)
    wrote = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_tracking_csv(os.path.join(out_dir, filename), run)
        wrote = filename
    bounds = [0.0, *run.switch_times, float(run.t[-1])]
    segs = []
    for j, (case, _) in enumerate(schedule):
        a, b = bounds[j], bounds[j + 1]
        span = (run.t >= a) & (run.t <= b)
        err = run.y_mean[span] - run.y_d[span]
        tail = (run.t >= b - 0.2 * (b - a)) & (run.t <= b)
        tail_err = run.y_mean[tail] - run.y_d[tail]
        segs.append({"case": case, "start": float(a), "end": float(b),
                     "rms_error": float(np.sqrt(np.mean(err ** 2))),
                     "settled_rms_error": float(np.sqrt(np.mean(tail_err ** 2)))})
    return {"file": wrote, "h": float(h), "n_paths": int(n_paths),
            "base_seed": int(base_seed), "segments": segs,
            "max_settled_rms": max(s["settled_rms_error"] for s in segs)}


def _cost_comparison(plant, cost, reference, cases, sol, options: dict) -> dict:
    """Average tracking cost of the noise-aware design against a design
    that pretended the noise channels were absent."""
    ref_k = reference.with_output_map(cases[options["case"] - 1])
    _, F_opt = feedforward_gains(plant, cost, ref_k, sol.P, sol.K)
    naive = StochasticSystem(plant.A, plant.B, np.zeros_like(plant.A),
                             np.zeros_like(plant.D), plant.H)
    P_det = solve_continuous_are(plant.A, plant.B,
                                 plant.H.T @ cost.Q @ plant.H, cost.R)
    K_det = np.linalg.solve(cost.R, plant.B.T @ P_det)
    _, F_det = feedforward_gains(naive, cost, ref_k, P_det, K_det)
    # one pass drives both designs with the same noise paths (common random
    # numbers), so the separation is the mean per-path difference over its
    # own SE
    c_opt, c_det = estimate_average_cost(
        plant, ref_k, [(sol.K, F_opt), (K_det, F_det)], cost, options["horizon"],
        options["n_paths"], options["seed"], h=options["h"])
    d = c_det.per_path - c_opt.per_path
    sep = d.mean() / (d.std() / np.sqrt(d.size - 1))
    return {**options,
            "noise_aware": {"K": _matrix(sol.K), "F": _matrix(F_opt),
                            "mean": c_opt.mean, "se": c_opt.se},
            "deterministic_design": {"K": _matrix(K_det), "F": _matrix(F_det),
                                     "mean": c_det.mean, "se": c_det.se},
            "separation_se": float(sep)}


# ---------------------------------------------------------------------------
# Pipelines


def run_experiment(config: ExperimentConfig, out_dir: str | None = None,
                   validate: bool = False, n_paths: int | None = None) -> RunReport:
    """Run the configured mode end to end, writing report and traces."""
    report = RunReport()
    out_dir = out_dir or config.output
    report.payload["config"] = _pyify(config.raw)
    report.payload["mode"] = config.mode
    if n_paths is not None:
        report.payload["n_paths_override"] = int(n_paths)

    def work():
        # tracking uses the model gains in model_based mode and the
        # learned gains otherwise
        sol = None
        if config.mode == "model_based" or validate:
            with _timed(report, "model_based"):
                sol, ff_by_case, ffmp, mb = _payload_model(
                    config.plant, config.cost, config.hyper, config.reference,
                    config.h_d_cases)
            K = sol.K
            report.payload["model_based"] = mb
            if config.mode == "model_based":
                report.payload["feedforward_cases"] = ffmp
        if config.mode != "model_based":
            with _timed(report, "collect"):
                moments = gather_moments(config, mode=config.data_source["kind"],
                                         n_paths=n_paths)
            validate_with = config.plant if validate else None
            omega_F, flags = None, {}
            if config.mode == "shadow":
                with _timed(report, "shadow_rows"):
                    omegas = shadow_regressors(config.shadow, config.plant.B,
                                               config.cost.R, moments.t_global,
                                               moments.window)
                with _timed(report, "learn_shadow"):
                    learned = learn_shadow(
                        moments, config.shadow, config.plant.B, config.cost,
                        config.hyper, validate_with=validate_with,
                        omegas=omegas)
                flags = _shadow_flags(moments)
                omega_F = omegas[1]
            else:
                with _timed(report, "learn_feedback"):
                    learned = learn_feedback(moments, config.cost, config.hyper,
                                             validate_with=validate_with)
            block = _payload_learned(learned)
            if sol is not None:
                block["vs_model"] = _vs_model(learned, sol)
            block.update(flags)
            report.payload[config.mode] = block
            with _timed(report, "learn_feedforward"):
                ff_by_case, ffp = _ff_case_fits(moments, learned, config.cost,
                                                config.hyper, config.h_d_cases,
                                                omega_F)
            K = learned.K_star
            report.payload["feedforward_cases"] = ffp
        if config.tracking is not None:
            tr = config.tracking
            with _timed(report, "tracking"):
                report.payload["tracking"] = _run_tracking(
                    config.plant, config.reference, config.h_d_cases, K,
                    ff_by_case, tr["schedule"], tr["h"], tr["n_paths"],
                    tr["base_seed"], out_dir, "tracking.csv")
        if config.cost_comparison is not None:
            if sol is None:
                raise ConfigError(
                    "cost_comparison needs the model-based solution; use mode "
                    "model_based or pass validate")
            with _timed(report, "cost_comparison"):
                report.payload["cost_comparison"] = _cost_comparison(
                    config.plant, config.cost, config.reference,
                    config.h_d_cases, sol, config.cost_comparison)

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


def _shift_seeds(cfg: ExperimentConfig, offset) -> ExperimentConfig:
    """Add ``offset`` (the --seed flag) to every segment base seed."""
    if offset:
        cfg.segments = tuple((x0, t_off, seed + offset)
                             for x0, t_off, seed in cfg.segments)
    return cfg


def _probing_block(sig) -> dict:
    return {"amplitude": sig.amplitude, "count": sig.count,
            "freq_range": list(sig.freq_range), "seed": sig.seed}


def _example_configs(which: str) -> list:
    """(name, config) of each run that reproduces one bundled example.

    Example one: Monte Carlo data-driven learning checked against the
    model, the noise-aware versus noise-blind cost study, and both
    tracking scenarios under the model gains. Example two: shadow
    learning on exact moments with zero plant input, tracking scenario 2
    under the learned gains, and the model-based feedforward table.
    """
    b = damped_oscillator() if which == "one" else coupled_oscillators()
    ref, hy, sim = b.reference, b.hyper, b.sim
    base = {
        "plant": {k: _matrix(getattr(b.plant, k)) for k in "ABCDH"},
        "reference": {"A_d": _matrix(ref.A_d), "H_d": _matrix(ref.H_d),
                      "x_d0": _matrix(ref.x_d0),
                      "cases": [_matrix(row) for row in b.h_d_cases]},
        "cost": {"Q": _matrix(b.cost.Q), "R": _matrix(b.cost.R)},
        "hyper": {"gamma": hy.gamma, "alpha0": hy.alpha0, "eta": hy.eta,
                  "epsilon": hy.epsilon, "max_iter": hy.max_iter,
                  "stop_rule": hy.stop_rule},
        "sim": {"h": sim.h, "T_s": sim.sample_period, "T": sim.window,
                "t1": sim.t1, "l": sim.l, "n_paths": sim.n_paths,
                "base_seed": sim.base_seed},
        "segments": [{"x0": _matrix(x0), "t_offset": t_off, "base_seed": seed}
                     for x0, t_off, seed in b.segments]}

    def tracking(scenario):
        return {"schedule": [list(step) for step in b.scenarios[scenario]],
                "h": 1e-3, "n_paths": 200, "base_seed": 97}

    if which == "one":
        base["probing"] = _probing_block(b.probing)
        runs = {"learn": {"mode": "data_driven",
                          "data_source": {"kind": "ensemble"},
                          "cost_comparison": {"case": 8, "horizon": 50.0,
                                              "n_paths": 2000, "h": 1e-3}},
                "scenario1": {"mode": "model_based",
                              "tracking": tracking("scenario1")},
                "scenario2": {"mode": "model_based",
                              "tracking": tracking("scenario2")}}
    else:
        sh = b.shadow
        base["shadow"] = {"A_a": _matrix(sh.A_a), "F_a": _matrix(sh.F_a),
                          "x_a0": _matrix(sh.x_a0), "y_a0": _matrix(sh.y_a0),
                          "probing": _probing_block(sh.u_a), "h": sh.h}
        runs = {"learn": {"mode": "shadow", "data_source": {"kind": "exact"},
                          "tracking": tracking("scenario2")},
                "model": {"mode": "model_based"}}
    return [(name, parse_experiment_config({**base, **run}))
            for name, run in runs.items()]


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_run(mode: str, summary, needs_tracking: bool = False):
    """Handler running the --config experiment in ``mode``, then printing
    ``summary(payload)``."""
    def handler(args) -> int:
        cfg = _shift_seeds(load_config(args.config), args.seed)
        if needs_tracking and cfg.tracking is None:
            raise ConfigError("config has no tracking block")
        cfg.mode = mode
        report = run_experiment(cfg, out_dir=args.out, validate=args.validate,
                                n_paths=args.paths)
        print(summary(report.payload))
        return 0

    return handler


def _solve_summary(p) -> str:
    return f"K* = {np.asarray(p['model_based']['K_star']).ravel().tolist()}"


def _learn_summary(p) -> str:
    return (f"learned feedback gain: {p['data_driven']['K_hat']}\n"
            f"fit feedforward gains for {len(p['feedforward_cases'])} case(s)")


def _shadow_summary(p) -> str:
    sh = p["shadow"]
    return (f"shadow-learned gain: {sh['K_hat']} "
            f"(plant input zero: {sh['plant_input_zero']})")


def _track_summary(p) -> str:
    return f"tracking settled RMS error: {p['tracking']['max_settled_rms']:.6g}"


def _cmd_example(which):
    def handler(args) -> int:
        payloads = {}
        for name, cfg in _example_configs(which):
            out = os.path.join(args.out, name) if args.out else None
            payloads[name] = run_experiment(
                _shift_seeds(cfg, args.seed), out_dir=out, validate=True,
                n_paths=args.paths).payload
        learn = payloads["learn"]
        if which == "one":
            dd = learn["data_driven"]
            print(f"model K* = {learn['model_based']['K_star']}")
            print(f"learned K^ = {dd['K_hat']} "
                  f"(crossing at iteration {dd['crossing_iteration']})")
            cc = learn["cost_comparison"]
            print(f"average cost {cc['noise_aware']['mean']:.6g} (noise aware) "
                  f"vs {cc['deterministic_design']['mean']:.6g} (noise blind)")
        else:
            sh = learn["shadow"]
            print(f"shadow K^ = {sh['K_hat']} "
                  f"(crossing at iteration {sh['crossing_iteration']}, "
                  f"plant input zero: {sh['plant_input_zero']})")
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
                       help="offset added to every segment base seed")
        q.add_argument("--paths", type=int, default=None,
                       help="override the ensemble path count")
        if takes_validate:
            q.add_argument("--validate-with-model", action="store_true",
                           dest="validate",
                           help="compute stability certificates from the "
                                "configured plant matrices")
        else:
            q.set_defaults(validate=True)  # the other subcommands always do
        q.set_defaults(func=fn)
        return q

    learn = _cmd_run("data_driven", _learn_summary)
    add("solve", _cmd_run("model_based", _solve_summary),
        "model-based solve of the tracking problem")
    add("learn-fb", learn, "data-driven learning (same run as learn-ff)",
        takes_validate=True)
    add("learn-ff", learn, "feedback plus feedforward learning",
        takes_validate=True)
    add("shadow", _cmd_run("shadow", _shadow_summary),
        "learning without plant excitation", takes_validate=True)
    add("track", _cmd_run("model_based", _track_summary, needs_tracking=True),
        "closed-loop tracking demo")
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
        return args.func(args)
    except json.JSONDecodeError as e:
        print(f"error: invalid JSON: {e}", file=sys.stderr)
        return EXIT_CODES["config"]
    except SlqtError as e:
        print(f"error: {e}", file=sys.stderr)
        return exit_code_for(e)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
