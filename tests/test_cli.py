"""Command line interface: configs, reports, exit codes, determinism."""

import contextlib
import copy
import glob
import io
import json
import math
import os
import re
import tempfile
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slqt.cli import (EXIT_CODES, RunReport, _write_ff_csv, _write_trace_csv,
                      _write_tracking_csv, build_parser, canonical_json, emit_report,
                      exit_code_for, load_config, load_report, main,
                      parse_experiment_config, run_experiment)
from slqt.errors import (Blowup, ConfigError, MaxIterExceeded, NonPositiveP,
                         NotStabilizing, RankDeficient, SingularOperator,
                         SlqtError)
from slqt.model import StabilityCertificate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCALAR_CONFIG = {
    "mode": "data_driven",
    "plant": {"A": [[0.0]], "B": [[1.0]], "C": [[0.1]], "D": [[0.0]],
              "H": [[1.0]]},
    "reference": {"A_d": [[0.0]], "H_d": [[1.0]], "x_d0": [1.0],
                  "cases": [[[1.0]], [[2.0]]]},
    "cost": {"Q": [[1.0]], "R": [[1.0]]},
    "sim": {"h": 1e-3, "T_s": 0.01, "T": 0.1, "l": 201, "n_paths": 60,
            "base_seed": 3},
    "probing": {"amplitude": 1.0, "count": 10, "freq_range": [-50.0, 50.0],
                "seed": 5},
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = copy.deepcopy(SCALAR_CONFIG)
    for key, val in (overrides or {}).items():
        if val is None:
            cfg.pop(key, None)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_canonical_json_is_sorted_and_stable():
    text = canonical_json({"b": 1, "a": [1.5, 2, True, None], "c": "x"})
    assert text == '{"a":[1.5,2,true,null],"b":1,"c":"x"}'
    assert canonical_json({"v": -0.0}) == '{"v":0}'
    assert canonical_json({"v": 0.1}) == '{"v":0.10000000000000001}'
    third = float(np.float64(1.0) / 3.0)
    assert float(json.loads(canonical_json({"v": third}))["v"]) == third


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ConfigError):
        canonical_json({"v": math.inf})
    with pytest.raises(ConfigError):
        canonical_json({"v": math.nan})


def test_exit_code_mapping():
    assert exit_code_for(RankDeficient("r")) == EXIT_CODES["rank"]
    assert exit_code_for(MaxIterExceeded("m")) == EXIT_CODES["contract"]
    assert exit_code_for(NonPositiveP("p")) == EXIT_CODES["numerical"]
    assert exit_code_for(ConfigError("c")) == EXIT_CODES["config"]
    assert exit_code_for(SlqtError("s")) == EXIT_CODES["numerical"]


def test_parse_config_validation_matrix():
    good = parse_experiment_config(copy.deepcopy(SCALAR_CONFIG))
    assert good.mode == "data_driven"
    assert len(good.h_d_cases) == 2
    one_input = {k: v for k, v in SCALAR_CONFIG.items() if k != "probing"}
    assert parse_experiment_config(copy.deepcopy(
        {**one_input, "mode": "shadow", "shadow": SHADOW_BLOCK})).mode == "shadow"
    for mutate in (
        {"mode": "mystery"},
        {"plant": None},
        {"reference": {"A_d": [[0.0]], "H_d": [[1.0, 0.0]], "x_d0": [1.0]}},
        {"cost": {"Q": [[1.0]], "R": [[0.0]]}},
        {"hyper": {"alpha0": 2.0}},
        {"sim": {"h": 1e-3, "T_s": 1e-4, "T": 0.1, "l": 10}},
        {"probing": {"amplitude": 1.0}},
        {"tracking": {"schedule": [[7, 1.0]]}},
        # a tracking segment that is not a positive multiple of its h
        {"tracking": {"schedule": [[1, 1.0005]], "h": 0.01}},
        {"tracking": {"schedule": [[1, 1.0]], "h": 0.0}},
        {"tracking": {"schedule": [[1, math.inf]]}},
        # a data route a model-based run never reads is still checked
        {"mode": "model_based", "data_source": {"kind": "moments"}},
        # refine is no key, even at its old default
        {"mode": "model_based", "data_source": {"kind": "exact", "refine": 1}},
        # the cost study block is typed before anything runs
        {"cost_comparison": {"case": "eight"}},
        {"cost_comparison": {"case": 3}},
        {"cost_comparison": {"case": 1.5}},
        {"cost_comparison": {"case": 1, "horizon": -1.0}},
        {"cost_comparison": {"case": 1, "horizon": 1.0005, "h": 0.001}},
        {"cost_comparison": {"case": 1, "h": 0.0}},
        {"cost_comparison": {"case": 1, "n_paths": 1}},
        {"cost_comparison": {"case": 1, "seed": "one"}},
        # with C = D = 0 the noise-blind design is the noise-aware one
        {"mode": "model_based", "cost_comparison": {"case": 1},
         "plant": {**SCALAR_CONFIG["plant"], "C": [[0.0]]}},
        # the shadow block is checked in every mode
        {"shadow": {**SHADOW_BLOCK, "h": 0.0}},
        {"shadow": {**SHADOW_BLOCK, "h": -1e-5}},
        # the shadow probing signal is scalar, so a two-input plant is refused
        {"mode": "shadow", "probing": None, "shadow": SHADOW_BLOCK,
         "plant": {"A": [[0.0]], "B": [[1.0, 1.0]], "C": [[0.1]],
                   "D": [[0.0, 0.0]], "H": [[1.0]]},
         "cost": {"Q": [[1.0]], "R": [[1.0, 0.0], [0.0, 1.0]]}},
        # and so is the data-driven one: the same plant is refused at parse
        {"plant": {"A": [[0.0]], "B": [[1.0, 1.0]], "C": [[0.1]],
                   "D": [[0.0, 0.0]], "H": [[1.0]]},
         "cost": {"Q": [[1.0]], "R": [[1.0, 0.0], [0.0, 1.0]]}},
        # integer keys take JSON integers only, and seeds are non-negative
        {"sim": {**SCALAR_CONFIG["sim"], "l": 201.5}},
        {"sim": {**SCALAR_CONFIG["sim"], "l": 201.0}},
        {"sim": {**SCALAR_CONFIG["sim"], "n_paths": "60"}},
        {"sim": {**SCALAR_CONFIG["sim"], "base_seed": 3.5}},
        {"sim": {**SCALAR_CONFIG["sim"], "base_seed": -1}},
        {"segments": [{"x0": [0.0], "base_seed": 1.5}]},
        {"segments": [{"x0": [0.0], "base_seed": -2}]},
        {"tracking": {"schedule": [[1, 1.0]], "n_paths": 10.5}},
        {"tracking": {"schedule": [[1, 1.0]], "base_seed": -1}},
        {"tracking": {"schedule": [[1, 1.0]], "n_paths": 0}},
        {"tracking": {"schedule": [[1.5, 1.0]]}},
        {"hyper": {"max_iter": 50.5}},
        # phase II has one stop rule, the value step; there is no key for it
        {"hyper": {"stop_rule": "gain"}},
        {"probing": {**SCALAR_CONFIG["probing"], "count": 10.5}},
        {"probing": {**SCALAR_CONFIG["probing"], "seed": -5}},
        {"probing": {**SCALAR_CONFIG["probing"], "seed": True}},
        {"mode": "model_based", "cost_comparison": {"case": 1, "seed": -1}},
        {"shadow": {**SHADOW_BLOCK, "probing": {**SHADOW_BLOCK["probing"], "seed": -2}}},
    ):
        cfg = copy.deepcopy(SCALAR_CONFIG)
        for k, v in mutate.items():
            if v is None:
                cfg.pop(k, None)
            else:
                cfg[k] = v
        with pytest.raises(ConfigError):
            parse_experiment_config(cfg)


SHADOW_BLOCK = {"A_a": [[-1.0]], "x_a0": [0.0], "F_a": [[0.0]], "y_a0": [1.0],
                "probing": {"amplitude": 1.0, "count": 5,
                            "freq_range": [-10.0, 10.0], "seed": 2}}

# (path to a block, a misspelt key for it); () is the top level
CONFIG_TYPOS = [
    ((), "segment"), (("plant",), "E"), (("reference",), "case"),
    (("cost",), "q"), (("hyper",), "max_iters"), (("sim",), "n_path"),
    (("probing",), "freq"), (("segments", 0), "seed"),
    (("data_source",), "refines"), (("shadow",), "probe"),
    (("shadow", "probing"), "amplitudes"), (("tracking",), "paths"),
    (("cost_comparison",), "paths"),
]


def every_block_config():
    """SCALAR_CONFIG with every optional block present."""
    cfg = copy.deepcopy(SCALAR_CONFIG)
    cfg.update({"hyper": {"gamma": 1.0, "max_iter": 50},
                "segments": [{"x0": [0.0], "t_offset": 0.0, "base_seed": 3}],
                "data_source": {"kind": "ensemble"},
                "shadow": copy.deepcopy(SHADOW_BLOCK),
                "tracking": {"schedule": [[1, 1.0]]},
                "cost_comparison": {"case": 1}})
    return cfg


@pytest.mark.parametrize("path,typo", CONFIG_TYPOS,
                         ids=[".".join(map(str, p)) or "top" for p, _ in CONFIG_TYPOS])
def test_unknown_keys_and_non_object_blocks_are_config_errors(path, typo):
    parse_experiment_config(every_block_config())
    cfg = every_block_config()
    block = cfg
    for key in path:
        block = block[key]
    block[typo] = 10
    with pytest.raises(ConfigError, match=re.escape(repr([typo]))):
        parse_experiment_config(cfg)
    cfg = every_block_config()
    if path:
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = [1]
    else:
        cfg = [1]
    with pytest.raises(ConfigError, match="must be a JSON object"):
        parse_experiment_config(cfg)


def test_config_typos_and_bad_values_exit_2(tmp_path, capsys):
    for name, override in (("typo", {"sim": {"h": 1e-3, "n_path": 10}}),
                           ("list", {"hyper": [1]}),
                           ("string", {"hyper": {"gamma": "one"}}),
                           ("no_segments", {"segments": []}),
                           # the output directory is a flag, not a config key
                           ("output", {"output": 5}),
                           ("row_b", {"plant": {
                               "A": [[0.0, 1.0], [-5.0, -0.5]], "B": [[0.0, 1.0]],
                               "C": [[0.1, 0.2], [0.2, 0.3]], "D": [[0.0], [0.1]],
                               "H": [[1.0, 0.0]]}})):
        cfg = write_config(tmp_path, overrides=override, name=name + ".json")
        assert main(["learn-ff", "--config", cfg]) == EXIT_CODES["config"]
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("block, key, value", [
    ("hyper", "epsilon", math.inf), ("hyper", "epsilon", math.nan),
    ("hyper", "gamma", math.inf),
    ("probing", "amplitude", math.nan), ("probing", "amplitude", math.inf),
], ids=["epsilon-inf", "epsilon-nan", "gamma-inf", "amplitude-nan", "amplitude-inf"])
def test_non_finite_hyperparameters_and_amplitudes_exit_2(tmp_path, capsys, block, key, value):
    # JSON's Infinity and NaN parse; example 1's learn run with one of
    # them is refused before anything runs, with no report written
    from slqt.benchmarks import EXAMPLES
    raw = copy.deepcopy(EXAMPLES["one"][0])
    raw[block][key] = value
    path = tmp_path / "cfg.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(raw, f)
    out = tmp_path / "out"
    assert main(["learn-ff", "--config", str(path), "--out", str(out)]) == EXIT_CODES["config"]
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("path, value", [
    (("sim", "h"), "1e-4"), (("sim", "T_s"), True), (("hyper", "gamma"), "1.0"),
    (("tracking", "h"), True), (("cost", "R"), [["0.01"]]),
    (("plant", "A", 0, 0), "0"), (("reference", "x_d0", 0), "2.2"),
], ids=["sim.h", "sim.T_s", "hyper.gamma", "tracking.h", "cost.R", "plant.A", "reference.x_d0"])
def test_float_keys_and_matrix_entries_take_json_numbers_only(path, value):
    # a string or a bool where a number belongs is refused, naming its key,
    # as the integer keys refuse them; example 1's scenario-1 run parses
    from slqt.benchmarks import EXAMPLES
    base, runs = EXAMPLES["one"]
    raw = copy.deepcopy({**base, **runs["scenario1"]})
    parse_experiment_config(copy.deepcopy(raw))
    block = raw
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    key = [k for k in path if isinstance(k, str)][-1]
    with pytest.raises(ConfigError, match=re.escape(f"config key {key!r} must be a number")):
        parse_experiment_config(raw)


def example_runs(which):
    """(name, parsed config) of each run of a bundled example."""
    from slqt.benchmarks import EXAMPLES
    base, runs = EXAMPLES[which]
    return [(name, parse_experiment_config(copy.deepcopy({**base, **blocks})))
            for name, blocks in runs.items()]


def test_shipped_configs_parse():
    paths = sorted(glob.glob(os.path.join(ROOT, "perfbench", "configs", "*.json")))
    assert len(paths) == 8
    for path in paths:
        load_config(path)
    for which in ("one", "two"):
        for _, cfg in example_runs(which):
            parse_experiment_config(copy.deepcopy(cfg.raw))


def test_parse_config_shadow_constraints():
    cfg = copy.deepcopy(SCALAR_CONFIG)
    cfg["mode"] = "shadow"
    with pytest.raises(ConfigError):
        parse_experiment_config(cfg)  # no shadow block
    cfg["shadow"] = {"A_a": [[-1.0]], "x_a0": [0.0], "F_a": [[0.0]],
                     "y_a0": [1.0],
                     "probing": {"amplitude": 1.0, "count": 5,
                                 "freq_range": [-10.0, 10.0], "seed": 2}}
    with pytest.raises(ConfigError):
        parse_experiment_config(cfg)  # plant probing still present
    cfg.pop("probing")
    parsed = parse_experiment_config(cfg)
    assert parsed.shadow is not None
    cfg2 = copy.deepcopy(cfg)
    cfg2["plant"]["D"] = [[0.5]]
    with pytest.raises(ConfigError):
        parse_experiment_config(cfg2)  # shadow route requires D = 0


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.json")])
    assert rc == EXIT_CODES["config"]
    assert "nope.json" in capsys.readouterr().err
    # a report is read by the same reader
    assert main(["report", str(tmp_path / "nope.json")]) == EXIT_CODES["config"]
    assert capsys.readouterr().err.startswith(
        f"error: cannot read report {str(tmp_path / 'nope.json')!r}")


def test_invalid_json_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["solve", "--config", str(bad)])
    assert rc == EXIT_CODES["config"]
    assert capsys.readouterr().err.startswith(f"error: invalid JSON in config {str(bad)!r}")
    # a malformed report is refused the same way
    assert main(["report", str(bad)]) == EXIT_CODES["config"]
    assert capsys.readouterr().err.startswith(f"error: invalid JSON in report {str(bad)!r}")


def test_a_refused_report_leaves_no_file(tmp_path):
    # the report is encoded before report.json is opened
    with pytest.raises(ConfigError, match="finite"):
        emit_report(RunReport(payload={"v": float("nan")}), str(tmp_path))
    assert os.listdir(tmp_path) == []


def test_validate_flag_only_where_a_handler_reads_it(tmp_path, capsys):
    cfg = write_config(tmp_path)
    parser = build_parser()
    for command in ("learn-ff", "shadow"):
        assert parser.parse_args([command, "--config", cfg]).validate is False
        args = parser.parse_args([command, "--config", cfg, "--validate-with-model"])
        assert args.validate is True
    # these always validate: the flag is a usage error
    for argv in (["solve", "--config", cfg], ["example1"], ["example2"]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(tmp_path / "never"), "--validate-with-model"])
        assert info.value.code == 2
        assert "--validate-with-model" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_solve_writes_report_and_prints_gain(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    p_true = (0.01 + np.sqrt(4.0001)) / 2.0
    assert f"{p_true:.4f}"[:5] in text
    report = load_report(str(out / "report.json"))
    assert not report.failed
    mb = report.payload["model_based"]
    assert mb["K_star"][0][0] == pytest.approx(p_true, abs=1e-9)
    assert mb["sare_residual"] < 1e-10
    assert mb["closed_loop_abscissa"] < 0.0
    assert mb["certification"] == "validated"
    # one line per result block: the model gain and the feedforward table
    assert text == (f"model K* = {mb['K_star']}\n"
                    f"feedforward gains for {len(report.payload['feedforward_cases'])} "
                    f"case(s)\n")
    assert (out / "model_based_trace.csv").exists()
    header = (out / "model_based_trace.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["iteration", "phase", "alpha"]


def test_learn_fb_payload_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b, out_c = (tmp_path / x for x in ("a", "b", "c"))
    assert main(["learn-ff", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["learn-ff", "--config", cfg, "--out", str(out_b)]) == 0
    assert main(["learn-ff", "--config", cfg, "--out", str(out_c),
                 "--seed", "17"]) == 0
    pa = load_report(str(out_a / "report.json"))
    pb = load_report(str(out_b / "report.json"))
    pc = load_report(str(out_c / "report.json"))
    assert pa.payload_text() == pb.payload_text()
    assert pa.payload_text() != pc.payload_text()
    # timestamps live outside the payload so they cannot break determinism
    doc = json.loads((out_a / "report.json").read_text())
    assert set(doc) >= {"schema", "created", "failed", "timing_s", "payload"}
    assert "created" not in doc["payload"]


def test_learn_ff_report_covers_cases_and_proportionality(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "ff"
    assert main(["learn-ff", "--config", cfg, "--out", str(out),
                 "--validate-with-model"]) == 0
    report = load_report(str(out / "report.json"))
    cases = report.payload["feedforward_cases"]
    assert [c["case"] for c in cases] == [1, 2]
    f1 = np.asarray(cases[0]["F"])
    f2 = np.asarray(cases[1]["F"])
    np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-10)
    assert report.payload["data_driven"]["vs_model"]["K_rel_err_2norm"] < 0.05
    csv_rows = (out / "ff_cases.csv").read_text().strip().splitlines()
    assert csv_rows[0].split(",")[0] == "case"
    assert len(csv_rows) == 3


def test_rank_deficient_run_exits_3_and_leaves_marker(tmp_path, capsys):
    cfg = write_config(tmp_path, overrides={
        "probing": None,
        "plant": {"A": [[-0.2]], "B": [[1.0]], "C": [[0.1]], "D": [[0.05]],
                  "H": [[1.0]]},
    })
    out = tmp_path / "rank"
    rc = main(["learn-ff", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_CODES["rank"]
    report = load_report(str(out / "report.json"))
    assert report.failed
    assert "rank" in report.error["type"].lower() or "Rank" in report.error["type"]
    # the error block carries the rank report, and the payload holds no trace of it
    rank = report.error["rank"]
    assert rank["rank"] < rank["required_rank"] == 3
    assert len(rank["singular_values"]) == 3
    assert rank["singular_values"] == sorted(rank["singular_values"], reverse=True)
    assert rank["tol"] > 0.0
    assert "rank" not in report.payload


def test_iteration_cap_exits_5(tmp_path):
    cfg = write_config(tmp_path, overrides={"hyper": {"max_iter": 1}})
    rc = main(["learn-ff", "--config", cfg, "--out", str(tmp_path / "cap")])
    assert rc == EXIT_CODES["contract"]
    report = load_report(str(tmp_path / "cap" / "report.json"))
    assert report.failed and report.error["type"] == "MaxIterExceeded"
    # the partial trace: alpha crosses gamma = 1 at iteration 1, and the
    # one phase-II step allowed after it does not settle
    trace = report.error["trace"]
    assert [(r["iteration"], r["phase"]) for r in trace] == [(1, 1), (2, 2)]
    assert trace[0]["alpha"] >= 1.0 and trace[1]["alpha"] == 1.0
    for r in trace:
        assert np.asarray(r["K"]).shape == np.asarray(r["P"]).shape == (1, 1)
    assert "data_driven" not in report.payload


def test_an_overflowing_gain_exits_4_with_its_trace(tmp_path, capsys):
    # example 1's plant with B[1][0] = 1e300: the first gain is finite but
    # its cost K'RK, the next step's forcing, overflows
    from slqt.benchmarks import EXAMPLES
    raw = copy.deepcopy(EXAMPLES["one"][0])
    raw["plant"]["B"][1][0] = 1e300
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == EXIT_CODES["numerical"]
    err = capsys.readouterr().err
    assert err == ("error: policy iteration 1 left a non-finite value P, gain K or "
                   "gain cost K'RK\n")
    report = load_report(str(out / "report.json"))
    assert report.failed
    assert report.error["type"] == "NonFiniteIterate" and report.error["trace"] == []


@pytest.mark.parametrize("which, key, i, j, error", [
    ("one", "C", 0, 0, "SingularOperator"), ("two", "H", 0, 1, "NonFiniteIterate")],
    ids=["operator", "forcing"])
def test_an_overflowing_lyapunov_solve_exits_4(tmp_path, capsys, which, key, i, j, error):
    # C[0][0] = 1e300 overflows the generalized Lyapunov operator before its
    # abscissa is taken; H[0][1] = 1e300 overflows the phase-II forcing H'QH,
    # which is refused before phase I. Either way stderr holds the one
    # error line: numpy's overflow warnings do not precede it
    from slqt.benchmarks import EXAMPLES
    raw = copy.deepcopy(EXAMPLES[which][0])
    raw["plant"][key][i][j] = 1e300
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["solve", "--config", str(path), "--out", str(out)])
    assert rc == EXIT_CODES["numerical"]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    report = load_report(str(out / "report.json"))
    assert report.failed and report.error["type"] == error
    if error == "NonFiniteIterate":
        assert err == "error: the phase-II cost forcing H'QH is not finite\n"
        assert report.error["trace"] == []


def _nodes(obj, path=()):
    """(path, value) of every block, list item and value below obj."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _fuzz_bases():
    """Each bundled example run's config, without tracking or cost study."""
    from slqt.benchmarks import EXAMPLES
    bases = []
    for base, runs in EXAMPLES.values():
        for blocks in runs.values():
            raw = copy.deepcopy({**base, **blocks})
            raw.pop("tracking", None)
            raw.pop("cost_comparison", None)
            bases.append(raw)
    return bases


FUZZ_BASES = _fuzz_bases()
# what a mutation puts in place of a value; a deletion is the other choice
FUZZ_VALUES = [None, True, False, "x", 1.5, [1.0, 2.0], [[1.0, 0.5], [0.5, 2.0]],
               math.inf, -math.inf, math.nan, 1e300, -1e300]


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        obj = list(obj.values())
    return all(map(_finite, obj)) if isinstance(obj, list) else True


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_mutated_example_configs_exit_with_a_documented_code(data):
    # one key deleted, or one value replaced, anywhere in a bundled
    # example's config: solve refuses it with a documented exit code and
    # one error line, or succeeds with a finite payload; nothing escapes
    # main, a warning included
    raw = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    path, _ = data.draw(st.sampled_from(list(_nodes(raw))))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(FUZZ_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as f:
            json.dump(raw, f)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            rc = main(["solve", "--config", cfg, "--out", out])
        assert rc in (0, 2, 3, 4, 5)
        if rc == 0:
            assert err.getvalue() == ""
            assert _finite(load_report(os.path.join(out, "report.json")).payload)
        else:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_error_block_carries_the_exception_figures():
    from slqt.cli import _error_block

    assert _error_block(Blowup("b", path_index=3, time=0.25)) == \
        {"type": "Blowup", "message": "b", "time": 0.25, "path_index": 3}
    assert _error_block(NotStabilizing("n", abscissa=0.5))["abscissa"] == 0.5
    cert = StabilityCertificate(True, -0.004, None)
    assert _error_block(SingularOperator("s", certificate=cert))["certificate"] == \
        {"stabilizing": True, "abscissa": -0.004, "alpha": None}
    # a figure the report cannot hold leaves the type and the message
    assert _error_block(NotStabilizing("n", abscissa=math.nan)) == \
        {"type": "NotStabilizing", "message": "n"}


# two unforced segments of a noisy two-state plant (D = 0, no probing)
# on exact moments, with one auxiliary pair restoring the rank
SHADOW_CONFIG = {
    "mode": "shadow",
    "plant": {"A": [[0.0, 1.0], [-1.5, -0.1]], "B": [[0.0], [1.0]],
              "C": [[0.05, 0.0], [0.0, 0.05]], "D": [[0.0], [0.0]],
              "H": [[1.0, 0.0]]},
    "reference": {"A_d": [[0.0, 1.3], [-1.3, 0.0]], "H_d": [[1.0, 0.0]],
                  "x_d0": [1.0, -0.5]},
    "cost": {"Q": [[4.0]], "R": [[2.0]]},
    "sim": {"h": 1e-4, "T_s": 2e-3, "T": 0.05, "l": 40, "n_paths": 1},
    "segments": [{"x0": [1.0, 0.6], "t_offset": 0.0},
                 {"x0": [-0.7, 1.0], "t_offset": 0.1281}],
    "data_source": {"kind": "exact"},
    "shadow": {"A_a": [[-0.5, 1.2], [-0.8, -1.0]],
               "F_a": [[0.0, 1.3], [-1.3, 0.0]], "x_a0": [0.0, 0.0],
               "y_a0": [1.0, -0.5], "h": 1e-5,
               "probing": {"amplitude": 2.0, "count": 20,
                           "freq_range": [-40.0, 40.0], "seed": 13}},
}


def test_shadow_subcommand_runs_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "shadow.json"
    cfg.write_text(json.dumps(SHADOW_CONFIG))
    out = tmp_path / "shadow"
    assert main(["shadow", "--config", str(cfg), "--out", str(out),
                 "--validate-with-model"]) == 0
    text = capsys.readouterr().out
    report = load_report(str(out / "report.json"))
    assert not report.failed
    sh = report.payload["shadow"]
    assert text.splitlines() == [
        f"model K* = {report.payload['model_based']['K_star']}",
        f"learned K^ = {sh['K_hat']} (crossing at iteration "
        f"{sh['crossing_iteration']}, plant input zero: True)",
        f"feedforward gains for {len(report.payload['feedforward_cases'])} case(s)"]
    assert sh["plant_input_zero"] is True
    assert np.asarray(sh["K_hat"]).shape == (1, 2)
    np.testing.assert_allclose(sh["K_hat"], report.payload["model_based"]["K_star"],
                               atol=1e-5)
    assert (out / "shadow_trace.csv").exists()


def test_example2_learn_config_runs_off_the_shadow_grid(tmp_path):
    # shadow.h is parsed but read by nothing: with an h of which neither
    # the 1e-3 sample times nor the 0.1 s window are multiples, example
    # 2's learn run still ends with the model's gain
    from slqt.benchmarks import EXAMPLES
    base, runs = EXAMPLES["two"]
    raw = copy.deepcopy({**base, **runs["learn"]})
    raw["shadow"]["h"] = 3e-5
    cfg = tmp_path / "ex2.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "ex2"
    assert main(["shadow", "--config", str(cfg), "--out", str(out),
                 "--validate-with-model"]) == 0
    report = load_report(str(out / "report.json"))
    assert not report.failed
    assert report.payload["shadow"]["vs_model"]["K_rel_err_2norm"] <= 1e-11


@pytest.mark.parametrize("key", ["A_a", "F_a"])
@pytest.mark.parametrize("value", [1.0, None, True], ids=["scalar", "null", "true"])
def test_shadow_maps_that_are_not_square_matrices_exit_2(tmp_path, capsys, key, value):
    raw = copy.deepcopy(SHADOW_CONFIG)
    raw["shadow"][key] = value
    cfg = tmp_path / "shadow.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["shadow", "--config", str(cfg), "--out", str(out)]) == EXIT_CODES["config"]
    # a scalar is no square matrix; null and true are no JSON numbers
    message = (f"shadow {key} must be a square matrix, got shape ()" if type(value) is float
               else f"config key {key!r} must be a number, got {value!r}")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "report.json").exists()


def test_shadow_refuses_rectangular_and_non_finite_maps():
    for key, value, message in (("A_a", [[-1.0, 0.5]], "square matrix, got shape (1, 2)"),
                                ("F_a", [[0.0, math.nan], [-1.3, 0.0]], "non-finite entry")):
        raw = copy.deepcopy(SHADOW_CONFIG)
        raw["shadow"][key] = value
        with pytest.raises(ConfigError, match=re.escape(f"shadow {key} ")) as info:
            parse_experiment_config(raw)
        assert message in str(info.value)


def test_shadow_subcommand_refuses_configs_outside_its_route(tmp_path, capsys,
                                                             monkeypatch):
    # the subcommand's mode is written into the config before it is
    # parsed, so the shadow route's checks hold whatever mode the file names
    import slqt.cli

    def never(*args, **kwargs):
        raise AssertionError("data collected for a refused config")

    monkeypatch.setattr(slqt.cli, "gather_moments", never)
    unprobed = {k: v for k, v in SCALAR_CONFIG.items() if k != "probing"}
    cases = [
        ({**SCALAR_CONFIG}, "mode 'shadow' needs a shadow block"),
        ({**unprobed, "shadow": SHADOW_BLOCK,
          "plant": {**SCALAR_CONFIG["plant"], "D": [[0.5]]}},
         "the shadow route requires D = 0"),
        ({**SCALAR_CONFIG, "shadow": SHADOW_BLOCK},
         "the shadow route forbids plant probing input"),
    ]
    for i, (raw, message) in enumerate(cases):
        assert raw["mode"] == "data_driven"
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / f"out{i}"
        assert main(["shadow", "--config", str(path), "--out", str(out)]) == \
            EXIT_CODES["config"]
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_cost_comparison_without_model_is_refused_before_collecting(
        tmp_path, capsys, monkeypatch):
    # a learning run without --validate-with-model has no model-based
    # solution to compare costs against; that is known before any stage
    import slqt.cli

    def never(*args, **kwargs):
        raise AssertionError("data collected for a refused config")

    monkeypatch.setattr(slqt.cli, "gather_moments", never)
    path = write_config(tmp_path, {"cost_comparison": {"case": 1}})
    out = tmp_path / "out"
    assert main(["learn-ff", "--config", path, "--out", str(out)]) == \
        EXIT_CODES["config"]
    message = ("cost_comparison needs the model-based solution; use mode "
               "model_based or pass validate")
    assert capsys.readouterr().err == f"error: {message}\n"
    report = load_report(str(out / "report.json"))
    assert report.failed and report.error["message"] == message
    assert report.timing_s == {}


@pytest.mark.parametrize("command,flags,config", [
    ("learn-ff", ["--seed", "3"], SCALAR_CONFIG),
    ("learn-ff", ["--paths", "40"], SCALAR_CONFIG),
    ("solve", [], SCALAR_CONFIG),
], ids=["seed", "paths", "solve-data-driven"])
def test_report_config_reruns_its_run(tmp_path, command, flags, config):
    # a report's config holds the subcommand's mode and the flags, so
    # rerunning it with no flags reproduces the payload byte for byte
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "a")]
                + flags) == 0
    first = load_report(str(tmp_path / "a" / "report.json"))
    echoed = first.payload["config"]
    again = tmp_path / "again.json"
    again.write_text(json.dumps(echoed))
    assert main([command, "--config", str(again), "--out", str(tmp_path / "b")]) == 0
    second = load_report(str(tmp_path / "b" / "report.json"))
    assert second.payload_text() == first.payload_text()
    sim = config["sim"]
    assert echoed["sim"]["base_seed"] == sim["base_seed"] + (3 if "--seed" in flags else 0)
    assert echoed["sim"]["n_paths"] == (40 if "--paths" in flags else sim["n_paths"])
    assert echoed["mode"] == first.payload["mode"] == \
        ("model_based" if command == "solve" else "data_driven")


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "neg"
    assert main(["learn-ff", "--config", cfg, "--seed", "-10", "--out", str(out)]) == \
        EXIT_CODES["config"]
    assert "'base_seed' is a seed and must be non-negative, got -7" in \
        capsys.readouterr().err
    assert not out.exists()


def test_shadow_and_data_driven_blocks_share_their_keys():
    shadow = run_experiment(parse_experiment_config(copy.deepcopy(SHADOW_CONFIG)),
                            validate=True)
    driven = run_experiment(parse_experiment_config(copy.deepcopy(SCALAR_CONFIG)),
                            validate=True)
    sh, dd = shadow.payload["shadow"], driven.payload["data_driven"]
    flags = {"plant_input_zero", "max_abs_input_moment", "unaugmented_rank"}
    assert flags <= set(sh)
    assert set(sh) - flags == set(dd)
    assert set(sh["rank"]) == set(dd["rank"]) == {"feedback"}


LEARNING_RUNS = [("learn-ff", SCALAR_CONFIG, "data_driven"),
                 ("shadow", SHADOW_CONFIG, "shadow")]


def _learned_block(tmp_path, command, raw, name, flags=()):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    assert main([command, "--config", str(path), "--out", str(tmp_path / name),
                 *flags]) == 0
    return load_report(str(tmp_path / name / "report.json")).payload


def test_validated_learning_certifies_every_iterate(tmp_path, capsys):
    # --validate-with-model certifies each learned iterate against the plant
    for command, raw, key in LEARNING_RUNS:
        block = _learned_block(tmp_path, command, raw, command,
                               ["--validate-with-model"])[key]
        assert block["certification"] == "validated"
        certs = block["certificates"]
        assert len(certs) == len(block["trace"]) == block["total_iterations"]
        assert all(c["stabilizing"] for c in certs)
        assert all(c["abscissa"] < 0.0 for c in certs)


def test_learning_without_the_model_is_uncertified(tmp_path, capsys):
    # the learners never see the plant: without the flag the block is
    # tagged model-free, and the gains equal those of the validated run
    for command, raw, key in LEARNING_RUNS:
        plain = _learned_block(tmp_path, command, raw, command)
        block = plain[key]
        assert block["certification"] == "uncertified (model-free)"
        assert "certificates" not in block and "model_based" not in plain
        checked = _learned_block(tmp_path, command, raw, command + "-model",
                                 ["--validate-with-model"])
        assert {k: v for k, v in checked[key].items()
                if k not in ("certification", "certificates", "vs_model")} == \
            {k: v for k, v in block.items() if k != "certification"}
        assert checked["feedforward_cases"] == plain["feedforward_cases"]


def test_seed_flag_shifts_explicit_segment_seeds(tmp_path, capsys):
    # --seed shifts sim.base_seed and each segment's explicit base_seed; a
    # segment without one takes the shifted sim seed when parsed
    raw = {**SCALAR_CONFIG, "segments": [{"x0": [1.0], "base_seed": 20},
                                         {"x0": [-0.5], "t_offset": 0.5}]}
    first = _learned_block(tmp_path, "learn-ff", raw, "shifted", ["--seed", "4"])
    echoed = first["config"]
    assert echoed["sim"]["base_seed"] == 7
    assert echoed["segments"] == [{"x0": [1.0], "base_seed": 24},
                                  {"x0": [-0.5], "t_offset": 0.5}]
    cfg = parse_experiment_config(copy.deepcopy(echoed))
    assert [seed for _, _, seed in cfg.segments] == [24, 7]
    # the echoed seeds are the ones the run drew with
    again = _learned_block(tmp_path, "learn-ff", echoed, "again")
    assert canonical_json(again) == canonical_json(first)
    unshifted = _learned_block(tmp_path, "learn-ff", raw, "unshifted")
    assert unshifted["config"]["segments"] == raw["segments"]
    assert unshifted["data_driven"]["K_hat"] != first["data_driven"]["K_hat"]


def test_example_command_runs_each_listed_run(tmp_path, capsys, monkeypatch):
    # a small stand-in for the bundled example two: every run of the list
    # gets its own validated report under --out, and each run's name and
    # summary are printed
    import slqt.cli

    base = {k: v for k, v in SHADOW_CONFIG.items() if k != "mode"}
    runs = {"learn": {"mode": "shadow"}, "model": {"mode": "model_based"}}
    monkeypatch.setattr(slqt.cli, "EXAMPLES", {"two": (base, runs)})
    out = tmp_path / "ex2"
    assert main(["example2", "--out", str(out)]) == 0
    learn = load_report(str(out / "learn" / "report.json")).payload
    model = load_report(str(out / "model" / "report.json")).payload
    sh = learn["shadow"]
    assert capsys.readouterr().out == (
        f"learn:\nmodel K* = {learn['model_based']['K_star']}\n"
        f"learned K^ = {sh['K_hat']} (crossing at iteration "
        f"{sh['crossing_iteration']}, plant input zero: True)\n"
        f"feedforward gains for {len(learn['feedforward_cases'])} case(s)\n"
        f"model:\nmodel K* = {model['model_based']['K_star']}\n"
        f"feedforward gains for {len(model['feedforward_cases'])} case(s)\n")
    assert learn["config"] == {**base, **runs["learn"]}
    assert model["config"] == {**base, **runs["model"]}
    assert sh["certification"] == "validated"
    assert learn["model_based"] == model["model_based"]
    assert sorted(os.listdir(out)) == ["learn", "model"]


REFINE_ERROR = "unknown key(s) ['refine'] in config block 'data_source'"


def refine_configs():
    """(subcommand, config) pairs of every mode, each data_source setting
    the removed refine key; a model-based solve never collects data."""
    for refine in (1, 20):
        for kind in ("ensemble", "exact"):
            yield "learn-ff", {**SCALAR_CONFIG, "data_source": {"kind": kind, "refine": refine}}
            yield "solve", {**SCALAR_CONFIG, "mode": "model_based",
                            "data_source": {"kind": kind, "refine": refine}}
        yield "shadow", {**SHADOW_CONFIG, "data_source": {"kind": "exact", "refine": refine}}


def test_bad_refine_is_a_config_error():
    # the exact route has one grid, so an old config's refine is refused,
    # naming the key, in every mode and at any value
    for _, raw in refine_configs():
        with pytest.raises(ConfigError) as info:
            parse_experiment_config(copy.deepcopy(raw))
        assert REFINE_ERROR in str(info.value)


def test_bad_refine_exits_2(tmp_path, capsys):
    for i, (command, raw) in enumerate(refine_configs()):
        path = tmp_path / f"refine{i}.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == EXIT_CODES["config"]
        assert REFINE_ERROR in capsys.readouterr().err


def test_readme_lists_the_parser_subcommands():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    listed = {line.split()[1] for block in blocks for line in block.splitlines()
              if line.startswith("slqt ")}
    choices = next(a.choices for a in build_parser()._actions
                   if a.dest == "command")
    assert listed == set(choices)


def test_track_produces_tracking_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, overrides={
        "tracking": {"schedule": [[1, 1.0], [2, 1.0]], "h": 0.01,
                     "n_paths": 10, "base_seed": 9}})
    out = tmp_path / "trk"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = load_report(str(out / "report.json"))
    # solve runs the config's tracking block and prints its settled RMS
    assert capsys.readouterr().out.splitlines()[2] == (
        "tracking settled RMS error: "
        f"{report.payload['tracking']['max_settled_rms']:.6g}")
    segs = report.payload["tracking"]["segments"]
    assert [s["case"] for s in segs] == [1, 2]
    assert all(np.isfinite(s["rms_error"]) for s in segs)
    lines = (out / "tracking.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "t"
    assert len(lines) == 2 + round(2.0 / 0.01)


def test_tracking_payload_does_not_depend_on_out(tmp_path):
    # tracking.file names the CSV that --out gets; the payload is the
    # same whether or not a directory is given
    raw = {**SCALAR_CONFIG, "mode": "model_based",
           "tracking": {"schedule": [[1, 0.5], [2, 0.5]], "h": 0.01,
                        "n_paths": 10, "base_seed": 9}}
    without = run_experiment(parse_experiment_config(copy.deepcopy(raw)))
    out = tmp_path / "trk"
    with_out = run_experiment(parse_experiment_config(copy.deepcopy(raw)), out_dir=str(out))
    assert without.payload["tracking"]["file"] == "tracking.csv"
    assert without.payload_text() == with_out.payload_text()
    assert (out / "tracking.csv").exists()


# zeros of both signs, the least subnormal, values near the largest
# double, integral floats and floats that need all 17 digits
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 3.0, -2.0,
               1e17, 0.1, 2.0 / 3.0, -1.25e-7]


def per_cell_csv(header, rows):
    """The CSV bytes formatted one cell at a time: integers by str, floats
    with 17 significant digits, and zero of either sign as 0."""
    def cell(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return "0" if float(v) == 0.0 else format(float(v), ".17g")
    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


def test_csv_writers_match_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(4)
    edge = np.array(EDGE_FLOATS)
    # trace rows: integer iteration and phase columns, then alpha, K, vech P
    trace = [{"iteration": i, "phase": 1 + i // 3, "alpha": edge[i],
              "K": [[edge[i + 1], edge[-i - 1]]],
              "P": [[edge[i + 2], edge[i + 3]], [edge[i + 3], edge[i + 4]]]}
             for i in range(6)]
    path = tmp_path / "shadow_trace.csv"
    _write_trace_csv(str(path), trace)
    rows = [[r["iteration"], r["phase"], r["alpha"], *r["K"][0], r["P"][0][0],
             r["P"][0][1], r["P"][1][1]] for r in trace]
    header = ["iteration", "phase", "alpha", "k_11", "k_12", "p_11", "p_12", "p_22"]
    assert path.read_bytes() == per_cell_csv(header, rows)
    # feedforward cases: an integer case column, then vec F
    cases = [{"case": k, "F": edge[k:k + 4].reshape(2, 2).tolist()} for k in range(1, 9)]
    path = tmp_path / "ff_cases.csv"
    _write_ff_csv(str(path), cases)
    rows = [[c["case"], *np.ravel(c["F"])] for c in cases]
    assert path.read_bytes() == per_cell_csv(["case", "f_1", "f_2", "f_3", "f_4"], rows)
    # a tracking body longer than one formatting chunk, every cell a float
    n = 9001
    body = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-300, 300, (n, 4))
    for j in range(4):
        body[:len(edge), j] = np.roll(edge, j)
    body[-1] = [-0.0, 5e-324, -1.7e308, 7.0]
    run = SimpleNamespace(t=np.arange(n) * 1e-3, y_mean=body[:, :1], y_d=body[:, 1:2],
                          u_mean=body[:, 2:])
    path = tmp_path / "tracking.csv"
    _write_tracking_csv(str(path), run)
    rows = np.hstack([run.t[:, None], body]).tolist()
    assert path.read_bytes() == per_cell_csv(["t", "y_1", "y_d_1", "u_1", "u_2"], rows)


def test_non_finite_csv_value_is_refused_before_the_file_exists(tmp_path):
    run = SimpleNamespace(t=np.arange(5.0), y_mean=np.ones((5, 1)), y_d=np.ones((5, 1)),
                          u_mean=np.ones((5, 1)))
    run.y_d[2, 0] = np.nan
    run.u_mean[3, 0] = np.inf
    run.y_mean[4, 0] = -np.inf
    path = tmp_path / "tracking.csv"
    with pytest.raises(ConfigError, match=r"got nan in column 'y_d_1' of row 3") as info:
        _write_tracking_csv(str(path), run)
    assert exit_code_for(info.value) == EXIT_CODES["config"]
    assert not path.exists()
    cases = [{"case": 1, "F": [[1.0, np.inf]]}]
    with pytest.raises(ConfigError, match=r"got inf in column 'f_2' of row 1"):
        _write_ff_csv(str(tmp_path / "ff_cases.csv"), cases)
    assert os.listdir(tmp_path) == []


def test_report_reemit_is_identical(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "solve"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    src = str(out / "report.json")
    assert main(["report", src]) == 0
    shown = capsys.readouterr().out
    with open(src, encoding="utf-8") as f:
        payload = json.load(f)["payload"]
    assert json.loads(shown)["payload"] == payload
    # canonical re-encode of a loaded report reproduces the payload bytes
    assert canonical_json(payload) == load_report(src).payload_text()


def test_report_rejects_other_schemas(tmp_path):
    p = tmp_path / "r.json"
    for doc in ({"schema": "slqt-report/999", "payload": {}}, [1, 2], "report"):
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_report(str(p))
        assert main(["report", str(p)]) == 2


def _same_problem(cfg, bundle):
    for key in "ABCDH":
        np.testing.assert_array_equal(getattr(cfg.plant, key),
                                      getattr(bundle.plant, key))
    np.testing.assert_array_equal(cfg.reference.x_d0, bundle.reference.x_d0)
    assert len(cfg.h_d_cases) == len(bundle.h_d_cases)
    for got, want in zip(cfg.h_d_cases, bundle.h_d_cases):
        np.testing.assert_array_equal(got, want)
    assert cfg.sim == bundle.sim
    assert [(x0.tolist(), t, s) for x0, t, s in cfg.segments] == \
        [(x0.tolist(), t, s) for x0, t, s in bundle.segments]
    # the descriptor written into each report parses back to the run
    again = parse_experiment_config(json.loads(canonical_json(cfg.raw)))
    assert again.mode == cfg.mode and again.tracking == cfg.tracking


def test_example_run_lists_follow_the_bundles():
    from slqt.benchmarks import coupled_oscillators, damped_oscillator

    def tracking(bundle, scenario):
        return {"schedule": list(bundle.scenarios[scenario]), "h": 1e-3,
                "n_paths": 200, "base_seed": 97}

    one, ex1 = dict(example_runs("one")), damped_oscillator()
    assert list(one) == ["learn", "scenario1", "scenario2"]
    assert one["learn"].mode == "data_driven"
    assert one["learn"].data_source == "ensemble"
    assert one["learn"].cost_comparison == {"case": 8, "horizon": 50.0,
                                            "n_paths": 2000, "h": 1e-3,
                                            "seed": 314159}
    assert one["learn"].tracking is None
    np.testing.assert_array_equal(one["learn"].probing.omegas,
                                  ex1.probing.omegas)
    for name in ("scenario1", "scenario2"):
        assert one[name].mode == "model_based"
        assert one[name].tracking == tracking(ex1, name)
        assert one[name].cost_comparison is None
    for cfg in one.values():
        _same_problem(cfg, ex1)

    two, ex2 = dict(example_runs("two")), coupled_oscillators()
    assert list(two) == ["learn", "model"]
    assert two["learn"].mode == "shadow"
    assert two["learn"].data_source == "exact"
    assert two["learn"].tracking == tracking(ex2, "scenario2")
    assert two["learn"].cost_comparison is None
    np.testing.assert_array_equal(two["learn"].shadow.A_a, ex2.shadow.A_a)
    np.testing.assert_array_equal(two["learn"].shadow.u_a.omegas,
                                  ex2.shadow.u_a.omegas)
    assert two["learn"].shadow.h == ex2.shadow.h
    assert two["model"].mode == "model_based"
    assert two["model"].tracking is None
    assert two["model"].cost_comparison is None
    for cfg in two.values():
        assert cfg.probing is None
        _same_problem(cfg, ex2)


def test_example1_scenario_runs_track_end_to_end(tmp_path):
    from slqt.benchmarks import damped_oscillator

    scenarios = damped_oscillator().scenarios
    for name, cfg in example_runs("one"):
        if name == "learn":
            continue
        out = tmp_path / name
        run_experiment(cfg, out_dir=str(out), validate=True)
        report = load_report(str(out / "report.json"))
        assert not report.failed
        assert json.loads(report.payload_text()) == report.payload
        assert parse_experiment_config(report.payload["config"]).mode == \
            "model_based"
        assert len(report.payload["feedforward_cases"]) == 8
        tr = report.payload["tracking"]
        assert tr["file"] == "tracking.csv"
        assert [s["case"] for s in tr["segments"]] == \
            [c for c, _ in scenarios[name]]
        assert tr["max_settled_rms"] < 0.5
    lines = (tmp_path / "scenario1" / "tracking.csv").read_text().splitlines()
    assert len(lines) == 2 + round(25.0 / 1e-3)


def test_cost_comparison_pairs_the_designs_on_common_noise():
    from slqt.cli import run_experiment
    from slqt.sim import estimate_average_cost

    raw = copy.deepcopy(SCALAR_CONFIG)
    raw["mode"] = "model_based"
    raw["plant"]["C"] = [[0.5]]
    raw["cost_comparison"] = {"case": 2, "horizon": 1.0, "n_paths": 40,
                              "h": 1e-3, "seed": 11}
    config = parse_experiment_config(raw)
    cc = run_experiment(config).payload["cost_comparison"]
    ref = config.reference.with_output_map(config.h_d_cases[1])
    aware, blind = estimate_average_cost(
        config.plant, ref, [(cc[key]["K"], cc[key]["F"])
                            for key in ("noise_aware", "deterministic_design")],
        config.cost, 1.0, 40, 11, h=1e-3)
    # both designs ran in one pass on the one seed, and the per-path costs
    # stay out of the payload
    for est, key in ((aware, "noise_aware"), (blind, "deterministic_design")):
        assert set(cc[key]) == {"K", "F", "mean", "se"}
        assert (cc[key]["mean"], cc[key]["se"]) == (est.mean, est.se)
    d = blind.per_path - aware.per_path
    paired = d.mean() / (d.std() / np.sqrt(39))
    assert cc["separation_se"] == pytest.approx(paired, rel=1e-12)
    # common noise cancels in the differences, so the paired SE is the smaller
    assert paired > (blind.mean - aware.mean) / np.hypot(aware.se, blind.se) > 0
