"""The seed sweep's summary and adoption gate, on fabricated rows.

``scripts/mc_seed_sweep.py`` decides whether a new increment law may
replace the old one; these checks run no simulation.
"""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "mc_seed_sweep.py")


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("mc_seed_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(seed, k, f, rms):
    return {"seed": seed, "outcome": "settled", "K_rel_err": k,
            "F_max_rel_err": f, "settled_rms": rms}


ROWS = [row(1, 0.01, 0.05, 0.2), row(2, 0.02, 0.10, 0.3),
        {"seed": 3, "outcome": "MaxIterExceeded", "K_rel_err": None,
         "F_max_rel_err": None, "settled_rms": None},
        row(4, 0.06, 0.20, 0.6), row(5, 0.03, 0.15, 0.4)]


def test_summary_leaves_the_failed_seed_out_of_the_figures(sweep):
    s = sweep.summarize(ROWS)
    assert s["seeds"] == 5
    assert s["phase2_failures"] == [3]
    assert s["K_median"] == pytest.approx(0.025)
    assert s["K_max"] == 0.06
    assert s["K_above_5pct"] == 1
    assert s["F_median"] == pytest.approx(0.125)
    assert s["F_max"] == 0.20
    assert s["rms_median"] == pytest.approx(0.35)
    assert s["rms_above_0.5"] == 1


BASE = {"phase2_failures": [3], "K_median": 0.02, "F_median": 0.1,
        "K_above_5pct": 1, "rms_above_0.5": 1}

# the candidate at each clause's limit, then one step past it
AT_LIMIT = {"phase2_failures": [3, 8], "K_median": 0.022, "F_median": 0.11,
            "K_above_5pct": 3, "rms_above_0.5": 3}
PAST_LIMIT = {"phase2_failures": [3, 8, 9], "K_median": 0.0221, "F_median": 0.111,
              "K_above_5pct": 4, "rms_above_0.5": 4}


def test_gate_passes_at_every_limit(sweep):
    assert sweep.gate(BASE, BASE) == dict.fromkeys(BASE, True)
    assert sweep.gate(BASE, AT_LIMIT) == dict.fromkeys(BASE, True)


@pytest.mark.parametrize("clause", sorted(BASE))
def test_each_gate_clause_fails_alone(sweep, clause):
    cand = {**AT_LIMIT, clause: PAST_LIMIT[clause]}
    assert sweep.gate(BASE, cand) == {k: k != clause for k in BASE}


def test_gate_command_exits_0_on_pass_and_1_on_fail(sweep, tmp_path, capsys):
    paths = {}
    for name, summary in (("base", BASE), ("ok", AT_LIMIT), ("bad", PAST_LIMIT)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"summary": summary, "rows": []}))
    assert sweep.main(["--gate", str(paths["base"]), str(paths["ok"])]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert sweep.main(["--gate", str(paths["base"]), str(paths["bad"])]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False
