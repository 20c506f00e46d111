"""Experiment configs: one raw JSON object per run, parsed once.

``parse_experiment_config`` checks everything any stage of a run reads,
whatever its mode, and builds a frozen ``ExperimentConfig`` that keeps
the raw form its report echoes. Every failure is a ``ConfigError``
(exit code 2). Command-line flags and the bundled examples are written
into the raw config before it is parsed, never into a parsed one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .learner import ShadowConfig
from .model import (BpiHyperParams, CostWeights, ReferenceGenerator,
                    StochasticSystem, TrackingProblem)
from .sim import ProbingSignal, SimConfig, _step_count

__all__ = ["ExperimentConfig", "load_config", "parse_experiment_config",
           "read_config"]


@dataclass(frozen=True)
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
    raw: dict

    def reference_for_case(self, case: int) -> ReferenceGenerator:
        """The reference with the output map of ``case`` (counted from 1)."""
        return self.reference.with_output_map(self.h_d_cases[case - 1])


_PROBING_KEYS = {"amplitude", "count", "freq_range", "seed"}
# the keys each config block may hold; any other key is a ConfigError
_CONFIG_KEYS = {
    "": {"mode", "plant", "reference", "cost", "hyper", "sim", "probing",
         "segments", "data_source", "shadow", "tracking", "cost_comparison"},
    "plant": {"A", "B", "C", "D", "H"},
    "reference": {"A_d", "H_d", "x_d0", "cases"},
    "cost": {"Q", "R"},
    "hyper": {"gamma", "alpha0", "eta", "theta", "epsilon", "max_iter"},
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


def _integer(block: dict, key: str, default: int | None = None) -> int:
    """``block[key]`` (or ``default`` when absent) if it is a JSON integer;
    with no default the key is required."""
    if default is None and key not in block:
        raise ConfigError(f"missing config key {key!r}")
    v = block.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"config key {key!r} must be an integer, got {v!r}")
    return v


def _seed(block: dict, key: str, default: int | None = None) -> int:
    v = _integer(block, key, default)
    if v < 0:
        raise ConfigError(f"config key {key!r} is a seed and must be non-negative, got {v}")
    return v


def _positive(block: dict, key: str, default: float) -> float:
    v = float(block.get(key, default))
    if not 0.0 < v < np.inf:
        raise ConfigError(f"config key {key!r} must be positive and finite, got {v!r}")
    return v


def _probing_from(block: dict):
    count, seed = _integer(block, "count"), _seed(block, "seed")
    try:
        return ProbingSignal(float(block["amplitude"]), count, block["freq_range"], seed)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad probing block: {e}") from e


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    """Check and build an experiment config.

    An unknown key anywhere, a block that is not a JSON object, a value
    of the wrong type and a negative seed all raise ConfigError.
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
    if mode != "model_based" and plant.m != 1:
        raise ConfigError(f"the {mode} route's probing input is scalar, "
                          f"so the plant needs one input, got {plant.m}")
    rb = _block(raw, "reference", required=True)
    reference = ReferenceGenerator(_arr(rb, "A_d"), _arr(rb, "H_d"),
                                   _arr(rb, "x_d0"))
    cb = _block(raw, "cost", required=True)
    cost = CostWeights(Q=np.atleast_2d(_arr(cb, "Q")),
                       R=np.atleast_2d(_arr(cb, "R")))
    hb = _block(raw, "hyper") or {}
    theta = hb.get("theta")
    hyper = BpiHyperParams(
        gamma=float(hb.get("gamma", BpiHyperParams.gamma)),
        alpha0=float(hb.get("alpha0", BpiHyperParams.alpha0)),
        eta=float(hb.get("eta", BpiHyperParams.eta)),
        theta=None if theta is None else np.asarray(theta, dtype=float),
        epsilon=float(hb.get("epsilon", BpiHyperParams.epsilon)),
        max_iter=_integer(hb, "max_iter", BpiHyperParams.max_iter))
    # construct-and-discard: raises ConfigError on any dimension mismatch
    TrackingProblem(system=plant, reference=reference, cost=cost, hyper=hyper)

    sb = _block(raw, "sim") or {}
    sim = SimConfig(h=float(sb.get("h", SimConfig.h)),
                    sample_period=float(sb.get("T_s", SimConfig.sample_period)),
                    window=float(sb.get("T", SimConfig.window)),
                    t1=float(sb.get("t1", SimConfig.t1)),
                    l=_integer(sb, "l", SimConfig.l),
                    n_paths=_integer(sb, "n_paths", SimConfig.n_paths),
                    base_seed=_seed(sb, "base_seed", SimConfig.base_seed))
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
                             _seed(s, "base_seed", sim.base_seed)))
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
                              h=float(shb.get("h", ShadowConfig.h)))
    if mode == "shadow":
        if shadow is None:
            raise ConfigError("mode 'shadow' needs a shadow block")
        if np.abs(plant.D).max(initial=0.0) != 0.0:
            raise ConfigError("the shadow route requires D = 0")
        if probing is not None:
            raise ConfigError("the shadow route forbids plant probing input")

    tb = _block(raw, "tracking")
    tracking = None
    if tb is not None:
        try:
            schedule = [(c, float(d)) for c, d in tb["schedule"]]
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad tracking schedule: {e}") from e
        tracking = {"schedule": schedule, "h": _positive(tb, "h", 1e-3),
                    "n_paths": _integer(tb, "n_paths", 200),
                    "base_seed": _seed(tb, "base_seed", 97)}
        if tracking["n_paths"] < 1:
            raise ConfigError("tracking n_paths must be at least 1")
        for c, d in schedule:
            if isinstance(c, bool) or not isinstance(c, int) or not 1 <= c <= len(h_d_cases):
                raise ConfigError(f"tracking schedule case {c!r} is not an integer "
                                  f"in 1..{len(h_d_cases)}")
            _step_count(d, tracking["h"], "tracking duration")

    ccb = _block(raw, "cost_comparison")
    cost_comparison = None
    if ccb is not None:
        cost_comparison = {"case": _integer(ccb, "case", 8),
                           "horizon": _positive(ccb, "horizon", 50.0),
                           "n_paths": _integer(ccb, "n_paths", 2000),
                           "h": _positive(ccb, "h", 1e-3),
                           "seed": _seed(ccb, "seed", 314159)}
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
        cost_comparison=cost_comparison, raw=raw)


def read_config(path: str, what: str = "config"):
    """The raw JSON document at ``path`` (a config unless ``what`` names
    another kind), not yet checked. An unreadable file and malformed JSON
    are both a ConfigError naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {what} {path!r}: {e}") from e


def load_config(path: str) -> ExperimentConfig:
    return parse_experiment_config(read_config(path))
