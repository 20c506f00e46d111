"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --out RESULT.json [--setup-only] [--trace]
                                CONFIG.json...

Imports slqt from the checkout's src/, parses the configs and records
the CLOCK_MONOTONIC time at which that set-up ended. Unless
--setup-only, it then runs each config through ``run_experiment`` (the
code behind ``slqt solve / learn-ff / shadow`` with
--validate-with-model), writing the reports as the CLI does (under
reports/ beside RESULT.json), and records
the pass's wall time, the time until the gains were known, and the
process's peak resident memory. Every worker also times a fixed
reference computation (``calibrate``) three times after set-up, and a
pass worker three more times after the pass. With --trace, spans around slqt's
public functions are recorded as well, and what ``run_ensemble``
returned is saved beside RESULT.json as ensemble_<i>.npz. The result
goes to RESULT.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# report stages that come after the gains are known
AFTER_GAINS = ("tracking", "cost_comparison")


def calibrate() -> list:
    """Seconds taken by a fixed reference computation, three times over.

    The computation has the shape of the workloads' three kinds of work:
    an interpreter-bound loop of 4 x 4 moment updates (like the RK4 moment
    loop), an Euler-Maruyama step loop over 2000 two-state paths with a
    per-step reduction, and Kronecker-product operators solved and
    decomposed by LAPACK. It uses nothing from slqt, so no change to slqt
    moves it; it moves with the speed the host gives this process.
    """
    import numpy as np
    out = []
    for _ in range(3):
        rng = np.random.default_rng(0)
        X = np.zeros((2000, 2))
        A = np.array([[0.0, 1.0], [-5.0, -0.5]])
        C = np.array([[0.1, 0.2], [0.2, 0.3]])
        M = rng.standard_normal((16, 16))
        eye = np.eye(16)
        A4, m, G = -np.eye(4) + 0.1 * M[:4, :4], np.ones(4), np.eye(4)
        t0 = time.perf_counter()
        for _ in range(3000):
            dm = A4 @ m
            AG = A4 @ G
            G = G + 1e-4 * (AG + AG.T + np.outer(dm, m))
            m = m + 1e-4 * dm
        for k in range(600):
            dW = rng.standard_normal(2000)
            X += 1e-3 * (X @ A.T + np.sin(k)) + (0.03 * dW)[:, None] * (X @ C.T)
            (X[:, [0, 0, 1]] * X[:, [0, 1, 1]]).mean(axis=0)
        for _ in range(3):
            L = np.kron(eye, M) + np.kron(M, eye) + np.kron(M, M)
            np.linalg.solve(L - 100.0 * np.eye(256), L[:, 0])
            np.linalg.eigvals(L)
        out.append(time.perf_counter() - t0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("configs", nargs="+")
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    work = os.path.dirname(os.path.abspath(args.out))

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import slqt
    from slqt import cli
    from slqt.errors import SlqtError
    if not os.path.abspath(slqt.__file__).startswith(src + os.sep):
        raise SystemExit(f"slqt imported from {slqt.__file__}, not from {src}")
    configs = [cli.load_config(path) for path in args.configs]
    ready = time.monotonic()
    doc = {"ready": ready, "calibration_s": calibrate()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            sys.path.insert(0, HERE)
            from tracer import Tracer
            tracer = Tracer(capture=("sim.run_ensemble",))
            tracer.install()
        payloads, stages, failed = [], {}, []
        t0 = time.perf_counter()
        for j, cfg in enumerate(configs):
            out_dir = os.path.join(work, "reports", f"{j:02d}")
            try:
                report = cli.run_experiment(cfg, out_dir=out_dir, validate=True)
                text = report.payload_text()
            except SlqtError as e:
                failed.append(f"{args.configs[j]}: {type(e).__name__}: {e}")
                continue
            payloads.append(text)
            for k, v in report.timing_s.items():
                stages[k] = stages.get(k, 0.0) + v
        wall = time.perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        doc["calibration_s"] += calibrate()
        doc.update({
            "wall_s": wall,
            "gains_s": sum(v for k, v in stages.items() if k not in AFTER_GAINS),
            "stages_s": stages,
            "peak_rss_mb": rss,
            "attempted": len(configs), "failed": failed,
            "payloads": [json.loads(t) for t in payloads],
            "payload_sha256": [hashlib.sha256(t.encode()).hexdigest() for t in payloads],
            "payload_bytes": sum(len(t) for t in payloads),
        })
        if tracer is not None:
            tracer.uninstall()
            doc["spans"] = tracer.self_times()
            doc["traced"] = sorted({sp["name"] for sp in doc["spans"]})
            for i, ds in enumerate(tracer.captured.get("sim.run_ensemble", [])):
                import numpy as np
                np.savez(os.path.join(work, f"ensemble_{i}.npz"),
                         t=ds.t, mean_xx=ds.mean_xx, se_xx=ds.se_xx, u=ds.u,
                         discount=ds.discount)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
