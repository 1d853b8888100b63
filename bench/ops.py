"""Executing, timing and checking benchmark ops inside one worker.

Load is a closed loop with one client: the next op starts only after
the previous one has returned, and CLI ops run one subprocess at a
time. An op's latency covers the library call (or the whole CLI
subprocess) and nothing of the answer check that follows it.

A shared host slows the whole machine in phases of seconds to
minutes, so the timed loop runs a fixed calibration pass before every
op and set-up sample and after the last one, and scales each wall time
to a fixed host speed (see ``calibrate`` and ``normalise``).
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import reference
import tracer as tracing
import workloads
from inputs import load_inputs

#: A CLI op that runs longer than this counts as failed.
CLI_TIMEOUT_S = 60
#: A timed run has at least this many whole rounds.
MIN_ROUNDS = 2
#: Fresh set-up workers per timed run, started at evenly spaced moments
#: of the loop; ``setup_s`` is their median.
SETUP_SAMPLES = 31
#: Fresh interpreters per side when splitting start-up from import.
START_SAMPLES = 7
#: Host-speed scale of the timed loop: a time is reported as its wall
#: time times CALIBRATION_REF_S over the calibration pass's wall time
#: measured next to it, that is, in seconds of a host on which one pass
#: takes 4 ms (about its median on a calm 2-vCPU Xeon VM).
CALIBRATION_REF_S = 0.004
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def run_child(args: list[str], env: dict, stderr=subprocess.DEVNULL
              ) -> tuple[float, int, str, float]:
    """(wall seconds, exit status, stdout, peak RSS in MB) of one fresh interpreter.

    The wait blocks until the child exits. ``subprocess.run`` with a
    timeout instead polls for the exit in sleeps of up to 50 ms, which
    would quantize the latency. ``os.wait4`` reaps the child and gives
    its own resource usage, apart from any other child. A timer kills a
    child that runs past ``CLI_TIMEOUT_S``; it then exits non-zero and
    counts as failed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=stderr)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return time.perf_counter() - start, proc.returncode, stdout, usage.ru_maxrss / 1024


def calibrate() -> float:
    """Wall seconds of one fixed pure-Python pass, with the GC off.

    The pass does the kind of work cplogic does (fractions, tuples,
    dicts, frozensets, small calls) and nothing else, so the host slows
    it as much as it slows an op. The GC stays off during it so that
    collecting an op's garbage is not charged to the pass.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        seen: dict = {}
        total = Fraction(0)
        for i in range(1200):
            key = (i % 97, frozenset((i % 5, i % 7)), str(i % 11))
            seen[key] = seen.get(key, 0) + 1
            total += Fraction(1, i % 7 + 2)
        return time.perf_counter() - start
    finally:
        gc.enable()


def normalise(walls: list[float], cals: list[float]) -> list[float]:
    """Each wall time scaled to a host on which the calibration pass takes CALIBRATION_REF_S.

    ``cals[i]`` and ``cals[i + 1]`` are the passes just before and just
    after event ``i``; their mean is the host's speed while it ran.
    """
    return [w * 2 * CALIBRATION_REF_S / (cals[i] + cals[i + 1]) for i, w in enumerate(walls)]


class Runner:
    def __init__(self, cp, plan: dict) -> None:
        self.cp = cp
        self.plan = plan
        paths = [plan["src"]] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        # Children cache bytecode, as an installed cplogic does, whatever
        # the caller's environment says: one that recompiled the sources
        # on every start would time CPython's compiler.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.traced = tracing.traced_names(plan["per_layer"])
        self.bound = tracing.bindings(tracing.traced_functions(self.traced))
        self.child_rss_mb = 0.0
        self.ops_digest = hashlib.sha256()

    def _require_pristine(self) -> None:
        if not tracing.pristine(self.bound):
            raise RuntimeError("a tracer wrapper is installed outside the traced pass")

    # -- single ops --------------------------------------------------------

    def _library(self, op: dict):
        cp = self.cp
        theory = cp.validate_theory(cp.parse_theory(op["text"]).theory)
        start = time.perf_counter()
        if op["kind"] == "prob":
            answer = cp.prob_formula(theory, cp.parse_context(op["context"]),
                                     cp.parse_formula(op["query"]))
        else:
            answer = cp.classify_causes(theory, cp.parse_context(op["outcome"]),
                                        cp.parse_literal(op["effect"]))
        elapsed = time.perf_counter() - start
        if op["kind"] == "causes":
            answer = {str(lit): (v.classification.value, v.supporting, v.branches)
                      for lit, v in answer.items()}
        return elapsed, reference.check_library(op, answer)

    def _cli(self, op: dict, in_process: bool):
        start = time.perf_counter()
        if in_process:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cp.cli.main(op["argv"])
            elapsed = time.perf_counter() - start
            return elapsed, code, reference.check_cli(op, code, out.getvalue())
        elapsed, code, stdout, rss_mb = run_child(["-m", "cplogic.cli", *op["argv"]], self.env)
        self.child_rss_mb = max(self.child_rss_mb, rss_mb)
        return elapsed, code, reference.check_cli(op, code, stdout)

    def execute(self, op: dict, in_process: bool = False) -> tuple[float, bool, bool]:
        """(seconds, failed, correct) of one op.

        Failed means it raised, exited non-zero or timed out; a failed
        op is never correct.
        """
        start = time.perf_counter()
        try:
            if op["kind"] == "cli":
                elapsed, code, correct = self._cli(op, in_process)
            else:
                (elapsed, correct), code = self._library(op), 0
        except Exception as err:  # a raising op is counted as failed, not fatal
            print(f"op {op.get('kind')} raised {err!r}", file=sys.stderr)
            return time.perf_counter() - start, True, False
        return elapsed, code != 0, correct and code == 0

    def selfcheck(self) -> bool:
        """Engine against reference on the smallest instance of every family."""
        self._require_pristine()
        ok = all(self.execute(op)[2] for op in self.plan["selfcheck"])
        self._require_pristine()
        return ok

    # -- timed loop --------------------------------------------------------

    def round_ops(self, index: int) -> list[dict]:
        """Round ``index`` of the op stream, its CLI files written and its ops digested."""
        ops, files = workloads.make_round(self.plan, index)
        for name, text in files.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        self.ops_digest.update(json.dumps([ops, files], sort_keys=True).encode())
        return ops

    def setup_sample(self) -> float:
        """Set-up seconds of one fresh worker process."""
        _, code, stdout, _ = run_child([WORKER, "setup", "."], self.env, stderr=None)
        if code != 0:
            raise RuntimeError(f"set-up worker exited with status {code}")
        return json.loads(stdout.splitlines()[-1])["setup_s"]

    def loop(self, seconds: float) -> dict:
        """Whole rounds until the next one would end past ``seconds``.

        Before an op, the loop starts a fresh set-up worker whenever the
        clock has passed the next of ``SETUP_SAMPLES`` evenly spaced
        moments, so the set-up samples see the same stretch of machine
        time as the ops. Their time counts toward ``seconds`` but not
        toward any op. A calibration pass runs before every op and
        set-up sample and after the last of them.
        """
        # One CPU for the loop, its calibration passes and every process
        # it starts: the host slows each vCPU on its own, so a pass on
        # one cannot scale an op that ran on another.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        checked = self.selfcheck()
        # events[i] is (kind, wall seconds); cals[i] and cals[i + 1] bracket it.
        events: list[tuple[str, float]] = []
        cals: list[float] = []
        failed = correct = done = round_size = 0
        n_setups = 0

        def timed(kind: str, step):
            cals.append(calibrate())
            wall, *rest = step()
            events.append((kind, wall))
            return rest

        start = time.perf_counter()
        while True:
            ops = self.round_ops(done)
            round_size = len(ops)
            for op in ops:
                while (n_setups < SETUP_SAMPLES and time.perf_counter() - start
                       >= n_setups * seconds / SETUP_SAMPLES):
                    timed("setup", lambda: (self.setup_sample(),))
                    n_setups += 1
                op_failed, op_correct = timed("op", lambda: self.execute(op))
                failed += op_failed
                correct += op_correct
            done += 1
            wall = time.perf_counter() - start
            if done >= MIN_ROUNDS and wall + wall / done > seconds:
                break
        while n_setups < SETUP_SAMPLES:
            timed("setup", lambda: (self.setup_sample(),))
            n_setups += 1
        cals.append(calibrate())
        self._require_pristine()
        peak = self.child_rss_mb if self.plan["workload"] == "cli-deep" \
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls = [w for _, w in events]
        scaled = normalise(walls, cals)

        def pick(kind: str, values: list[float]) -> list[float]:
            return [v for (k, _), v in zip(events, values) if k == kind]

        latencies = pick("op", scaled)
        return {
            "selfcheck": checked,
            "rounds": done,
            "round_size": round_size,
            "ops_digest": self.ops_digest.hexdigest(),
            "wall_s": wall,
            "setup_samples_s": pick("setup", scaled),
            "latencies_s": latencies,
            "wall_setup_samples_s": pick("setup", walls),
            "wall_latencies_s": pick("op", walls),
            "calibration_s": cals,
            "calibration_ref_s": CALIBRATION_REF_S,
            "events": [k for k, _ in events],
            "attempted": len(latencies),
            "failed": failed,
            "correct_ops": correct,
            "peak_rss_mb": peak,
        }

    # -- traced pass -------------------------------------------------------

    def _step(self, op: dict | None, tracer=None) -> tuple[float, bool, bool]:
        """(wall, failed, correct) of one op, or of the set-up when ``op`` is None."""
        if tracer is not None:
            tracer.install()
            span = tracer.begin(tracing.OP_SPAN)
        try:
            start = time.perf_counter()
            if op is None:
                load_inputs(self.cp, self.plan)
                failed, correct = False, True
            else:
                _, failed, correct = self.execute(op, in_process=True)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.end(span)
                tracer.uninstall()
        self._require_pristine()
        return wall, failed, correct

    def _start_costs(self) -> tuple[float, float]:
        """Median fresh-interpreter start and median extra for ``import cplogic.cli``."""
        sides = {"pass": [], "import cplogic.cli": []}
        for _ in range(START_SAMPLES):
            for code, samples in sides.items():
                elapsed, status, _, _ = run_child(["-c", code], self.env)
                if status != 0:
                    raise RuntimeError(f"python3 -c {code!r} exited with status {status}")
                samples.append(elapsed)
        floor = statistics.median(sides["pass"])
        return floor, statistics.median(sides["import cplogic.cli"]) - floor

    def trace(self) -> dict:
        """Set-up plus round 0, each step run plainly and traced.

        The two runs of a step are back to back, in alternating order, so
        drift in the process (heap growth, warm caches) cancels out of
        ``trace_overhead``. CLI ops run in-process here.
        """
        checked = self.selfcheck()
        ops = self.round_ops(0)
        tracer = tracing.Tracer(self.traced)
        plain_wall = traced_wall = 0.0
        failed = correct = 0
        for number, op in enumerate([None] + ops):
            tracer.op = number
            for traced in ((False, True) if number % 2 else (True, False)):
                wall, op_failed, op_correct = self._step(op, tracer if traced else None)
                if traced:
                    traced_wall += wall
                else:
                    plain_wall += wall
                if op is not None:
                    failed += op_failed
                    correct += op_correct
        interpreter_s, import_s = self._start_costs()
        tracer.dump("trace_spans.json")

        mismatches = exact_count_mismatches(tracer, ops)
        for line in mismatches:
            print(f"exact-count check failed: {line}", file=sys.stderr)
        metrics = layer_metrics(tracer, len(ops), self.plan["per_layer"])
        metrics.update({
            "cli.import_s": import_s,
            "cli.interpreter_s": interpreter_s,
            "trace_overhead": traced_wall / plain_wall,
        })
        return {
            "selfcheck": checked,
            "exact_counts": not mismatches,
            "ops_digest": self.ops_digest.hexdigest(),
            "attempted": 2 * len(ops),
            "failed": failed,
            "correct_ops": correct,
            "metrics": metrics,
        }


def exact_count_mismatches(tracer, ops: list[dict]) -> list[str]:
    """Per-op counts the closed form fixes; a tracer that misses a binding fails here."""
    bad = []
    for number, op in enumerate(ops, 1):
        expected = {}
        if op["kind"] == "prob":
            expected["engine.build_tree.nodes"] = reference.prob_wide_nodes(op)
        elif op["kind"] == "causes":
            expected["causation.actual_cause.calls"] = reference.actual_cause_calls(op)
            expected["engine.enumerate_branches.branches"] = reference.causes_branches(op)
        elif op["sub"] in ("prob", "tree"):
            expected["engine.build_tree.nodes"] = reference.chain_nodes(op["d"])
        for name, want in expected.items():
            if name.endswith(".calls"):
                got = tracer.calls[number, name.rsplit(".", 1)[0]]
            else:
                got = tracer.counts[number, name]
            if got != want:
                bad.append(f"op {number} ({op['kind']}): {name} = {got}, expected {want}")
    return bad


def layer_metrics(tracer, n_ops: int, names: list[str]) -> dict:
    """Per-op values of the per-layer metrics the tracer measures.

    ``module.function.calls`` and ``.self_s`` come from the spans; the
    other names are the tracer's counters. Start-up costs and
    ``trace_overhead`` are added by the caller.
    """
    selfs = tracer.self_times()
    calls: Counter = Counter()
    for (_, name), value in tracer.calls.items():
        calls[name] += value
    counts: Counter = Counter()
    for (_, name), value in tracer.counts.items():
        counts[name] += value
    ops = {op for op, _ in tracer.calls}
    distinct_keys = sum(tracer.distinct_cause_keys(op) for op in ops)
    nodes = counts["engine.build_tree.nodes"]
    cause_calls = calls["causation.actual_cause"]
    metrics = {
        "engine.build_tree.nodes": nodes / n_ops,
        "engine.build_tree.distinct_state_ratio":
            counts["engine.build_tree.distinct_states"] / nodes if nodes else 0.0,
        "engine.prob_formula.cone_law_ratio":
            statistics.fmean(tracer.cone_ratios) if tracer.cone_ratios else 0.0,
        "engine.enumerate_branches.branches":
            counts["engine.enumerate_branches.branches"] / n_ops,
        "causation.actual_cause.distinct_ratio":
            distinct_keys / cause_calls if cause_calls else 0.0,
    }
    for name in names:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls[base] / n_ops
        elif kind == "self_s":
            metrics[name] = sum(selfs.get(base, {}).values()) / n_ops
    return metrics
