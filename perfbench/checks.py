"""Checks of each workload's outputs against the oracles.

A ``Checker`` holds one run's configs and caches what the oracles
compute from them (the configs do not change between the passes of a
run); ``check_pass`` checks one pass's payloads and returns the accuracy
figures it measured. Failed checks are collected in ``failures``.
"""

from __future__ import annotations

import os

import numpy as np

import oracles as orc

# Bands. Monte Carlo figures are held to bands that hold at any seed;
# exact-route and model-based figures to bands near roundoff.
MODEL_RESIDUAL_REL = 1e-9      # Riccati residual / sum of the terms' norms
MODEL_GAIN_REL = 1e-8          # model K, F against the oracles
MC_K_REL = 0.05                # learned K, Monte Carlo route
MC_F_BAND = 0.30               # learned F, worst case, share of |F|max
MC_RATIO_REL = 1e-10           # F(case 2), F(case 3) against 2 F(case 1), 3 F(case 1)
TRACKING_RMS = 0.5             # settled tracking RMS error
TRACKING_Z = 6.0               # ensemble-mean tracking output against the exact EM mean
SHADOW_K_REL = 1e-6            # learned K, exact moments + shadow rows
SHADOW_F_REL = 1e-5
SHADOW_MAX_ITER = 14
COST_Z = 5.0                   # Monte Carlo cost mean against the exact EM cost
COST_SEPARATION = 3.0          # noise-blind minus noise-aware cost, in SE
ENSEMBLE_Z = 6.0               # ensemble second moments against the EM recursion


def _a(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _rel(a, b) -> float:
    return float(np.linalg.norm(_a(a) - _a(b)) / max(np.linalg.norm(_a(b)), 1e-300))


def _f_err(F_hat, F_ref) -> float:
    """Largest entry error as a share of the largest entry of F_ref."""
    return float(np.abs(_a(F_hat) - _a(F_ref)).max() / np.abs(_a(F_ref)).max())


class Plant:
    """The matrices of one config, and what the oracles make of them."""

    def __init__(self, raw: dict):
        p, c, r, hy = raw["plant"], raw["cost"], raw["reference"], raw.get("hyper", {})
        self.A, self.B, self.C, self.D, self.H = (_a(p[k]) for k in "ABCDH")
        self.Q = np.atleast_2d(_a(c["Q"]))
        self.R = np.atleast_2d(_a(c["R"]))
        self.A_d, self.x_d0 = _a(r["A_d"]), _a(r["x_d0"])
        self.cases = [np.atleast_2d(_a(row)) for row in r.get("cases", [r["H_d"]])]
        self.hyper = {"gamma": float(hy.get("gamma", 1.0)),
                      "alpha0": float(hy.get("alpha0", 0.1)),
                      "eta": float(hy.get("eta", 0.95))}
        self.P, self.K = orc.stabilizing_riccati(self.A, self.B, self.C, self.D,
                                                 self.H, self.Q, self.R)
        self.F = [orc.feedforward(self.A, self.B, self.D, self.H, self.Q, self.R,
                                  self.A_d, H_d, self.P, self.K) for H_d in self.cases]
        n = self.A.shape[0]
        self.crossing, _ = orc.phase1_crossing(
            self.A, self.B, self.C, self.D, self.R, self.hyper["gamma"],
            self.hyper["alpha0"], self.hyper["eta"], 10.0 * np.eye(n))
        self._abscissa: dict = {}
        self._cost: dict = {}
        self._tracking: dict = {}

    def abscissa(self, K) -> float:
        K = _a(K)
        key = K.tobytes()
        if key not in self._abscissa:
            self._abscissa[key] = orc.ms_abscissa(self.A, self.B, self.C, self.D, K)
        return self._abscissa[key]

    def residual(self, P) -> float:
        res, scale = orc.riccati_residual(self.A, self.B, self.C, self.D, self.H,
                                          self.Q, self.R, _a(P))
        return res / scale

    def exact_cost(self, H_d, K, F, horizon, h) -> float:
        key = (_a(H_d).tobytes(), _a(K).tobytes(), _a(F).tobytes(), horizon, h)
        if key not in self._cost:
            self._cost[key] = orc.em_expected_cost(
                self.A, self.B, self.C, self.D, self.H, self.Q, self.R, self.A_d,
                _a(H_d), self.x_d0, _a(K), _a(F), horizon, h)
        return self._cost[key]

    def exact_tracking(self, K, schedule, h) -> tuple:
        key = (_a(K).tobytes(), tuple((_a(H_d).tobytes(), _a(F).tobytes(), d)
                                      for H_d, F, d in schedule), h)
        if key not in self._tracking:
            self._tracking[key] = orc.em_tracking(
                self.A, self.B, self.C, self.D, self.H, _a(K), self.A_d, self.x_d0,
                [(_a(H_d), _a(F), d) for H_d, F, d in schedule], h)
        return self._tracking[key]


class Checker:
    def __init__(self, workload: str, raws: list):
        self.workload = workload
        self.raws = raws
        self.plants = [Plant(raw) for raw in raws]
        self.failures: list = []
        self.count = 0
        self._sha: list | None = None

    def expect(self, name: str, ok: bool, detail="") -> None:
        self.count += 1
        if not ok:
            self.failures.append(f"{self.workload}: {name} ({detail})")

    def check_pass(self, payloads: list, shas: list, reports: str) -> dict:
        """Check one pass, whose report files are under ``reports``; return
        its accuracy figures."""
        self.expect("payload bytes repeat across passes",
                    self._sha is None or shas == self._sha, "sha256 differs")
        self._sha = self._sha or shas
        acc = {"acc.K_rel_err": 0.0, "acc.F_max_rel_err": 0.0,
               "acc.sare_residual_max": 0.0}
        for j, (plant, raw, p) in enumerate(zip(self.plants, self.raws, payloads)):
            self._model(plant, p["model_based"], acc)
            if raw["mode"] == "data_driven":
                self._learned(plant, p["data_driven"], p["feedforward_cases"], acc,
                              MC_K_REL, MC_F_BAND)
                self._mc_extras(p["data_driven"], p["feedforward_cases"])
            elif raw["mode"] == "shadow":
                self._learned(plant, p["shadow"], p["feedforward_cases"], acc,
                              SHADOW_K_REL, SHADOW_F_REL)
                self._shadow_extras(p["shadow"])
            else:
                F_model = [c["F"] for c in p["feedforward_cases"]]
                for F, F_ref in zip(F_model, plant.F):
                    err = _f_err(F, F_ref)
                    acc["acc.F_max_rel_err"] = max(acc["acc.F_max_rel_err"], err)
                    self.expect("model F matches the Sylvester oracle",
                                err <= MODEL_GAIN_REL, f"{err:.3e}")
            if "tracking" in p:
                F = {c["case"]: c["F"] for c in p["feedforward_cases"]}
                csv = os.path.join(reports, f"{j:02d}", p["tracking"]["file"])
                self._tracking(plant, raw["tracking"], p["tracking"],
                               p[raw["mode"]]["K_hat"], F, csv, acc)
                rms = p["tracking"]["max_settled_rms"]
                self.expect("settled tracking RMS", rms < TRACKING_RMS, f"{rms:.4g}")
            if "cost_comparison" in p:
                acc["acc.cost_z_max"] = self._cost(plant, p["cost_comparison"])
        return acc

    def _model(self, plant: Plant, mb: dict, acc: dict) -> None:
        P, K = _a(mb["P_star"]), _a(mb["K_star"])
        res = plant.residual(P)
        acc["acc.sare_residual_max"] = max(acc["acc.sare_residual_max"], res)
        self.expect("model P solves the Riccati equation",
                    res <= MODEL_RESIDUAL_REL, f"{res:.3e}")
        self.expect("model P is positive definite",
                    bool(np.linalg.eigvalsh(P).min() > 0.0))
        a = plant.abscissa(K)
        self.expect("model K is mean-square stabilizing", a < 0.0, f"{a:.4g}")
        err = _rel(K, plant.K)
        self.expect("model K matches the oracle", err <= MODEL_GAIN_REL, f"{err:.3e}")
        if self.raws[0]["mode"] == "model_based":
            acc["acc.K_rel_err"] = max(acc["acc.K_rel_err"], err)
        self.expect("model crossing matches the oracle's phase I",
                    mb["crossing_iteration"] == plant.crossing,
                    f"{mb['crossing_iteration']} vs {plant.crossing}")

    def _learned(self, plant, learned, cases, acc, k_band, f_band) -> None:
        err = _rel(learned["K_hat"], plant.K)
        acc["acc.K_rel_err"] = err
        self.expect("learned K against the oracle", err <= k_band, f"{err:.3e}")
        f_err = max(_f_err(c["F"], F_ref) for c, F_ref in zip(cases, plant.F))
        acc["acc.F_max_rel_err"] = f_err
        self.expect("learned F against the Sylvester oracle", f_err <= f_band,
                    f"{f_err:.3e}")
        crossing = learned["crossing_iteration"]
        alphas = learned["alpha_trace"][:crossing]
        self.expect("phase-I alpha strictly increasing",
                    all(b > a for a, b in zip(alphas, alphas[1:])))
        self.expect("crossing within 1 of the oracle's",
                    abs(crossing - plant.crossing) <= 1, f"{crossing} vs {plant.crossing}")
        certs = learned.get("certificates") or []
        self.expect("every iterate certified stabilizing",
                    bool(certs) and all(c["stabilizing"] for c in certs))

    def _mc_extras(self, learned, cases) -> None:
        F = [_a(c["F"]) for c in cases]
        for k in (2, 3):
            err = float(np.abs(F[k - 1] - k * F[0]).max() / np.abs(F[0]).max())
            self.expect(f"F(case {k}) = {k} F(case 1)", err <= MC_RATIO_REL, f"{err:.3e}")

    def _shadow_extras(self, sh) -> None:
        self.expect("plant input moments identically zero",
                    sh["plant_input_zero"] is True and sh["max_abs_input_moment"] == 0)
        un = sh["unaugmented_rank"]
        self.expect("unaugmented rank below the required rank",
                    un["rank"] < un["required_rank"],
                    f"{un['rank']} vs {un['required_rank']}")
        self.expect("total iterations", sh["total_iterations"] <= SHADOW_MAX_ITER,
                    str(sh["total_iterations"]))

    def _tracking(self, plant, cfg, tr, K, F, csv, acc) -> None:
        """The tracking run's output file against the exact EM mean and
        variance of the closed loop with the gains the run learned, and
        the settled RMS figures against that file."""
        schedule = [(plant.cases[c - 1], F[c], float(d)) for c, d in cfg["schedule"]]
        t, y_d, y_mean, y_var, windows = plant.exact_tracking(K, schedule, float(cfg["h"]))
        data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        same_grid = data.shape[0] == t.size and np.allclose(data[:, 0], t, rtol=0,
                                                            atol=1e-12)
        self.expect("tracking output on the oracle's grid", same_grid, str(data.shape))
        if not same_grid:
            return
        q = y_d.shape[1]
        y, yd = data[:, 1:1 + q], data[:, 1 + q:1 + 2 * q]
        err = float(np.abs(yd - y_d).max() / np.abs(y_d).max())
        self.expect("tracking reference output against the oracle", err <= 1e-9,
                    f"{err:.3e}")
        # |y - E y| within TRACKING_Z standard errors of an n_paths mean at
        # every grid point, plus roundoff where the variance vanishes
        se = np.sqrt(y_var / int(cfg["n_paths"]))
        excess = float((np.abs(y - y_mean) - TRACKING_Z * se).max())
        z = float((np.abs(y - y_mean) / np.maximum(se, 1e-300)).max())
        self.expect("ensemble-mean tracking output against the exact EM mean",
                    excess <= 1e-9 * np.abs(y_mean).max(), f"max |z| = {z:.3g}")
        segs = tr["segments"]
        self.expect("one settled RMS figure per segment", len(segs) == len(windows),
                    f"{len(segs)} vs {len(windows)}")
        for seg, w in zip(segs, windows):
            rms = float(np.sqrt(np.mean((y[w] - yd[w]) ** 2)))
            self.expect(f"case {seg['case']} settled RMS matches the tracking output",
                        abs(seg["settled_rms_error"] - rms) <= 1e-12 * max(rms, 1.0),
                        f"{seg['settled_rms_error']:.6g} vs {rms:.6g}")
        acc["acc.tracking_rms"] = tr["max_settled_rms"]
        acc["acc.tracking_z_max"] = z

    def _cost(self, plant: Plant, cc: dict) -> float:
        case = int(cc["case"])
        H_d = plant.cases[case - 1]
        K_det, F_det = orc.deterministic_design(plant.A, plant.B, plant.H, plant.Q,
                                                plant.R, plant.A_d, H_d)
        refs = {"noise_aware": (plant.K, plant.F[case - 1]),
                "deterministic_design": (K_det, F_det)}
        z_max = 0.0
        exact = {}
        for key, (K_ref, F_ref) in refs.items():
            blk = cc[key]
            err = max(_rel(blk["K"], K_ref), _rel(blk["F"], F_ref))
            self.expect(f"{key} gains match the oracles", err <= MODEL_GAIN_REL,
                        f"{err:.3e}")
            exact[key] = plant.exact_cost(H_d, blk["K"], blk["F"],
                                          float(cc["horizon"]), float(cc["h"]))
            z = (blk["mean"] - exact[key]) / blk["se"]
            z_max = max(z_max, abs(z))
            self.expect(f"{key} Monte Carlo cost against the exact EM cost",
                        abs(z) <= COST_Z, f"z = {z:.3g}")
        a, d = cc["noise_aware"], cc["deterministic_design"]
        sep = (d["mean"] - a["mean"]) / float(np.hypot(a["se"], d["se"]))
        self.expect("noise-aware cost below noise-blind cost",
                    sep >= COST_SEPARATION and exact["deterministic_design"]
                    > exact["noise_aware"], f"{sep:.3g} SE")
        return z_max

    def check_ensemble(self, data: dict) -> float:
        """Max |z| of captured run_ensemble second moments against the
        exact Euler-Maruyama recursion, over the grid."""
        raw, plant = self.raws[0], self.plants[0]
        pr, sim = raw["probing"], raw["sim"]
        t, h = data["t"], float(sim["h"])
        u = orc.probing_input(pr["amplitude"], pr["count"], pr["freq_range"],
                              pr["seed"], t)[:, None]
        scale = np.exp(-float(data["discount"]) * t)
        self.expect("captured input is the discounted probing signal",
                    np.allclose(data["u"], u * scale[:, None], rtol=1e-12, atol=1e-12))
        x0 = _a(raw["segments"][0]["x0"])
        _, second = orc.em_moments(plant.A, plant.B, plant.C, plant.D, u, x0, h)
        r, c = np.triu_indices(plant.A.shape[0])
        exact = second[:, r, c] * (scale * scale)[:, None]
        se = data["se_xx"]
        live = se > 0.0
        z = np.abs(data["mean_xx"][live] - exact[live]) / se[live]
        frozen = np.abs(data["mean_xx"][~live] - exact[~live]).max(initial=0.0)
        z_max = float(z.max())
        self.expect("ensemble second moments against the EM recursion",
                    z_max <= ENSEMBLE_Z and frozen <= 1e-12, f"max |z| = {z_max:.3g}")
        return z_max
