"""Regenerate the benchmark's experiment configs.

    python3 perfbench/make_configs.py

writes one JSON experiment config per workload input into
perfbench/configs/, built from the package's own bundles
(``damped_oscillator()``, ``coupled_oscillators()``) and from a seeded
generator of random plants. The configs hold the default workload seed
(0); ``run.py`` writes the run's seed into the seed fields when it
loads them (see ``apply_seed``). No config carries a ``refine`` key.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")

# Sizes. mc_learn keeps example 1's full ensemble (2000 paths x 51,000
# steps): with fewer paths or a shorter record the learned gains miss the
# checks' bands at some seeds. The other workloads are cut so that one
# pass takes seconds: a 5 s cost horizon instead of 50 s, and a shadow
# record of 2001 samples per segment instead of 4901, with the second
# segment starting just after the first ends (2.1 s), which keeps the
# shadow K within 1e-6 of the oracle.
MC_LEARN = {"n_paths": 2000, "l": 5001, "schedule": "scenario1",
            "tracking_paths": 200}
COST_STUDY = {"case": 8, "horizon": 5.0, "n_paths": 2000, "h": 1e-3,
              "seed": 314159}
SHADOW_LEARN = {"l": 2001, "second_segment_offset": 2.2,
                "schedule": "scenario2", "tracking_paths": 200}
MODEL_SWEEP = {"dims": (2, 4, 8, 16, 32), "m": 2, "plant_seed": 20251,
               "threshold": -0.05}
TRACKING_SEED = 97


def _matrix(M):
    import numpy as np
    return np.asarray(M, dtype=float).tolist()


def _probing(sig) -> dict:
    return {"amplitude": float(sig.amplitude), "count": int(sig.count),
            "freq_range": [float(sig.freq_range[0]), float(sig.freq_range[1])],
            "seed": int(sig.seed)}


def _schedule(bundle, name: str) -> list:
    return [[int(c), float(d)] for c, d in bundle.scenarios[name]]


def _common(bundle, mode: str, l: int, n_paths: int) -> dict:
    p, c, r, hy, sim = bundle.plant, bundle.cost, bundle.reference, bundle.hyper, bundle.sim
    return {
        "mode": mode,
        "plant": {"A": _matrix(p.A), "B": _matrix(p.B), "C": _matrix(p.C),
                  "D": _matrix(p.D), "H": _matrix(p.H)},
        "reference": {"A_d": _matrix(r.A_d), "H_d": _matrix(r.H_d),
                      "x_d0": _matrix(r.x_d0),
                      "cases": [_matrix(row) for row in bundle.h_d_cases]},
        "cost": {"Q": _matrix(c.Q), "R": _matrix(c.R)},
        "hyper": {"gamma": hy.gamma, "alpha0": hy.alpha0, "eta": hy.eta,
                  "epsilon": hy.epsilon, "max_iter": hy.max_iter},
        "sim": {"h": sim.h, "T_s": sim.sample_period, "T": sim.window,
                "t1": sim.t1, "l": int(l), "n_paths": int(n_paths),
                "base_seed": int(sim.base_seed)},
    }


def mc_learn() -> dict:
    from slqt import damped_oscillator
    b = damped_oscillator()
    s = MC_LEARN
    raw = _common(b, "data_driven", s["l"], s["n_paths"])
    raw["probing"] = _probing(b.probing)
    raw["segments"] = [{"x0": _matrix(x0), "t_offset": float(t), "base_seed": int(seed)}
                       for x0, t, seed in b.segments]
    raw["tracking"] = {"schedule": _schedule(b, s["schedule"]),
                       "h": 1e-3, "n_paths": s["tracking_paths"],
                       "base_seed": TRACKING_SEED}
    return raw


def cost_study() -> dict:
    from slqt import damped_oscillator
    b = damped_oscillator()
    raw = _common(b, "model_based", b.sim.l, b.sim.n_paths)
    raw["cost_comparison"] = dict(COST_STUDY)
    return raw


def shadow_learn() -> dict:
    from slqt import coupled_oscillators
    b = coupled_oscillators()
    s = SHADOW_LEARN
    raw = _common(b, "shadow", s["l"], b.sim.n_paths)
    raw["data_source"] = {"kind": "exact"}
    (x0a, _, seed_a), (x0b, _, seed_b) = b.segments
    raw["segments"] = [
        {"x0": _matrix(x0a), "t_offset": 0.0, "base_seed": int(seed_a)},
        {"x0": _matrix(x0b), "t_offset": s["second_segment_offset"],
         "base_seed": int(seed_b)}]
    sh = b.shadow
    raw["shadow"] = {"A_a": _matrix(sh.A_a), "F_a": _matrix(sh.F_a),
                     "x_a0": _matrix(sh.x_a0), "y_a0": _matrix(sh.y_a0),
                     "probing": _probing(sh.u_a), "h": sh.h}
    raw["tracking"] = {"schedule": _schedule(b, s["schedule"]),
                       "h": 1e-3, "n_paths": s["tracking_paths"],
                       "base_seed": TRACKING_SEED}
    return raw


def random_plant(n: int, m: int, rng, threshold: float):
    """Random plant whose zero-gain threshold is pinned at ``threshold``.

    The operator abscissa moves by -2s when A moves by -sI, so shifting A
    by half the excess puts the open-loop abscissa at ``threshold``.
    """
    import numpy as np
    from slqt import StochasticSystem, zero_gain_threshold
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    B = rng.normal(size=(n, m))
    C = 0.25 * rng.normal(size=(n, n)) / np.sqrt(n)
    D = 0.2 * rng.normal(size=(n, m))
    H = np.eye(n)
    sys0 = StochasticSystem(A, B, C, D, H)
    shift = 0.5 * (zero_gain_threshold(sys0) - threshold)
    return A - shift * np.eye(n), B, C, D, H


def model_sweep() -> dict:
    """One model-based config per state dimension, keyed 'n<N>'."""
    import numpy as np
    from slqt import damped_oscillator
    s = MODEL_SWEEP
    ref = damped_oscillator().reference
    rng = np.random.default_rng(s["plant_seed"])
    out = {}
    for n in s["dims"]:
        A, B, C, D, H = random_plant(n, s["m"], rng, s["threshold"])
        H_d = rng.normal(size=(n, ref.n_d))
        out[f"n{n:02d}"] = {
            "mode": "model_based",
            "plant": {"A": _matrix(A), "B": _matrix(B), "C": _matrix(C),
                      "D": _matrix(D), "H": _matrix(H)},
            "reference": {"A_d": _matrix(ref.A_d), "H_d": _matrix(H_d),
                          "x_d0": _matrix(ref.x_d0)},
            "cost": {"Q": _matrix(np.eye(n)), "R": _matrix(np.eye(s["m"]))},
            "hyper": {"gamma": 1.0, "alpha0": 0.1, "eta": 0.95,
                      "epsilon": 1e-9, "max_iter": 200},
        }
    return out


def all_configs() -> dict:
    """File name (without .json) -> raw config."""
    out = {"mc_learn": mc_learn(), "cost_study": cost_study(),
           "shadow_learn": shadow_learn()}
    for key, raw in model_sweep().items():
        out[f"model_sweep_{key}"] = raw
    return out


def main() -> int:
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(CONFIG_DIR, exist_ok=True)
    for name, raw in all_configs().items():
        path = os.path.join(CONFIG_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(raw, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {os.path.relpath(path, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
