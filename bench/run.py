"""The cplogic benchmark: one seeded run of one workload.

Run from the repository root:

    python3 bench/run.py --workload prob-wide --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``prob-wide``
(library ``prob_formula``), ``causes-partial`` (library
``classify_causes``) and ``cli-deep`` (the ``cplogic`` CLI as a
subprocess). Load is a closed loop with one client.

With ``--trace 0`` one worker runs the timed loop of whole op rounds
for about ``--seconds`` and, spread evenly over it, starts fresh
set-up workers whose median is ``setup_s``. Its times are scaled to a
fixed host speed by calibration passes run next to every op (see
``ops.py``). With ``--trace 1`` a worker runs round 0 of the same op
stream once plainly and once with the outside-in tracer, and reports
per-layer metrics. Every answer is checked against the closed forms in
``reference.py``.

Human-readable lines go to stdout first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The full
record (seed, set-up and op-stream digests, tail percentile and
sample count, error and correct ratios, raw latencies) goes to
``bench/out/<workload>-seed<seed>-trace<0|1>/result.json``.
Exit status: 0 when every answer was correct, 1 when not, 2 when the
checkout has no cplogic sources to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A worker may run this much longer than ``--seconds`` (self-check,
#: the last round, set-up workers) before it counts as hung.
MARGIN_S = 120


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(latencies)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(latencies)[rank - 1]


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 per_layer: list[str]) -> None:
        self.seconds = seconds
        self.workdir = HERE / "out" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.plan = workloads.make_plan(workload, seed)
        self.plan["src"] = str(ROOT / "src")
        self.plan["per_layer"] = per_layer
        for name, text in self.plan["files"].items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        with open(self.workdir / "plan.json", "w", encoding="utf-8") as fh:
            json.dump(self.plan, fh)

    def worker(self, mode: str) -> dict:
        # Its own session, so that a hung worker is stopped together with
        # the set-up workers and CLI children it started.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), mode, str(self.workdir), str(self.seconds)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=self.seconds + MARGIN_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"{mode} worker still running after {self.seconds + MARGIN_S} s")
        sys.stderr.write(stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{mode} worker exited with status {proc.returncode}")
        return json.loads(stdout.splitlines()[-1])


def end_to_end(run: Run) -> tuple[dict, dict, dict]:
    res = run.worker("loop")
    setups = res["setup_samples_s"]
    lat_ms = [s * 1000 for s in res["latencies_s"]]
    pct, tail_ms = tail(lat_ms)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops": res["correct_ops"] / sum(res["latencies_s"]),
        "latency_p50_ms": statistics.median(lat_ms),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    wall = {
        "setup_s": statistics.median(res["wall_setup_samples_s"]),
        "throughput_ops": res["correct_ops"] / sum(res["wall_latencies_s"]),
        "latency_p50_ms": 1000 * statistics.median(res["wall_latencies_s"]),
    }
    cals = res["calibration_s"]
    extra = {
        "setup_samples_s": setups,
        "loop_worker_setup_s": res["setup_s"],
        "ops_digest": res["ops_digest"],
        "latency_tail_ms": tail_ms,
        "latency_tail_percentile": pct,
        "latency_samples": len(lat_ms),
        "error_ratio": res["failed"] / res["attempted"],
        "correct_ratio": res["correct_ops"] / res["attempted"],
        "rounds": res["rounds"],
        "round_size": res["round_size"],
        "loop_wall_s": res["wall_s"],
        "latencies_ms": lat_ms,
        "wall_clock": wall,
        "wall_latencies_ms": [s * 1000 for s in res["wall_latencies_s"]],
        "wall_setup_samples_s": res["wall_setup_samples_s"],
        "calibration_s": cals,
        "events": res["events"],
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh workers spread over the loop",
        "timings scaled to a host on which the calibration pass takes "
        f"{1000 * res['calibration_ref_s']:g} ms; this run's passes took {1000 * statistics.median(cals):.4g} ms "
        f"(median), unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()),
        f"latency_tail_ms {tail_ms:.6g} ms: p{pct} of {len(lat_ms)} samples (recorded, not gated)",
        f"error_ratio {extra['error_ratio']:.6g} ({res['failed']}/{res['attempted']}), "
        f"correct_ratio {extra['correct_ratio']:.6g} ({res['correct_ops']}/{res['attempted']})",
        f"{res['rounds']} rounds of {res['round_size']} ops in {res['wall_s']:.2f} s "
        f"(ops digest {res['ops_digest'][:16]}; no op repeats)",
    ]
    return res, values, {**extra, "notes": notes}


def per_layer(run: Run) -> tuple[dict, dict, dict]:
    res = run.worker("trace")
    extra = {
        "exact_counts": res["exact_counts"],
        "ops_digest": res["ops_digest"],
        "notes": [f"traced round 0 ({res['attempted'] // 2} ops); exact-count checks "
                  + ("passed" if res["exact_counts"] else "FAILED")],
    }
    return res, res["metrics"], extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cplogic" / "__init__.py").is_file():
        print(f"no cplogic sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              [m["name"] for m in spec["per_layer"]])
    res, values, extra = (per_layer if args.trace else end_to_end)(run)
    correct = (res["selfcheck"] and res["failed"] == 0
               and res["correct_ops"] == res["attempted"]
               and res.get("exact_counts", True))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"set-up digest {run.plan['digest'][:16]}")
    print("load: closed loop, one client (next op starts when the previous returns)")
    for m in listed:
        print(f"  {m['name']:<42} {values[m['name']]:>14.6g} {m['unit']:<6} "
              f"({m['better']} is better)")
    for note in extra.pop("notes"):
        print(f"  {note}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digest": run.plan["digest"],
        "load": "closed loop, one client",
        "correct": correct,
        "selfcheck": res["selfcheck"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {**metrics[m["name"]], "better": m["better"]} for m in listed},
        **extra,
    }
    with open(run.workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
