"""BENCHMARK.json lists exactly the metrics run.py reports."""

import json
import os

import run


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == run.per_layer_metrics()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_seed_reaches_every_seed_field():
    with open(os.path.join(run.HERE, "configs", "mc_learn.json"), encoding="utf-8") as f:
        raw = json.load(f)
    seeded = run.apply_seed(raw, 3)
    off = 3 * run.SEED_STRIDE
    assert seeded["sim"]["base_seed"] == raw["sim"]["base_seed"] + off
    assert seeded["tracking"]["base_seed"] == raw["tracking"]["base_seed"] + off
    assert [s["base_seed"] for s in seeded["segments"]] \
        == [s["base_seed"] + off for s in raw["segments"]]
    assert raw == run.apply_seed(raw, 0)
    fixed = run.apply_seed(raw, 3, ensemble=False)
    assert fixed["tracking"]["base_seed"] == seeded["tracking"]["base_seed"]
    assert (fixed["sim"], fixed["segments"]) == (raw["sim"], raw["segments"])


def test_configs_carry_no_refine_key():
    for names in run.WORKLOADS.values():
        for name in names:
            with open(os.path.join(run.HERE, "configs", name + ".json"),
                      encoding="utf-8") as f:
                raw = json.load(f)
            assert "refine" not in raw.get("data_source", {}), name
