"""Pipeline benchmark: simulate -> track -> evaluate on one workload.

Usage:
    python3 perfbench/run.py --workload crowded --seed 1 --seconds 20 --trace 0

Set-up simulates the workload's sequences with `lineage simulate` several
times (set-up time is the median).  The measured part then runs whole
rounds until `--seconds` have passed: for each sequence, one `lineage track`
process, then one `lineage evaluate` process that evaluates it three times.
Every output tree is checked by `checks.py`.  With `--trace 1`, untraced
and traced rounds alternate, the traced ones wrapping the program's public
functions (`tracing.py`); the per-module metrics and the tracing overhead
are printed instead of the end-to-end metrics, and the spans are written
to .perfbench/trace-WORKLOAD-seedN.json.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import tracing
from workloads import CONNECTIVITY, MIN_CELL_SIZE, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_REPEATS = 3
EVALUATE_REPEATS = 3  # evaluates of each sequence per round, in one process
RUN_LIMIT_S = 170  # stop starting work after this; a run must end within 180 s
UNREADABLE = (checks.CheckError, OSError, ValueError, KeyError)  # a tree the checks cannot read


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def tree_digest(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


class Run:
    def __init__(self, workload, seed, run_dir):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.env = dict(os.environ)
        threads = str(len(os.sched_getaffinity(0)))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads
        self.gt_dirs = []
        for i, cfg in enumerate(workload.sim_configs(seed)):
            path = os.path.join(run_dir, "sim%d.json" % i)
            with open(path, "w") as f:
                json.dump(cfg, f)
            self.gt_dirs.append(os.path.join(run_dir, "gt%d" % i))
        self.track_args = []
        if workload.track_config is not None:
            path = os.path.join(run_dir, "track.json")
            with open(path, "w") as f:
                json.dump(workload.track_config, f)
            self.track_args = ["--config", path]
        self.gt_cells = []
        # sample kind -> [(sequence index, value)]
        self.samples = {"track_s": [], "traced_track_s": [], "evaluate_s": [], "rss_kb": []}
        self.scores = None
        self.first_outputs = {}  # sequence -> digest of its first track output
        self.trace_parts = []  # (label, share of a workload pass, worker trace)
        self.n_workers = 0
        self.oracle_checked = 0  # ncc_best and reseg_cell results checked

    def fail(self, what, problems, ops=1):
        """Count failed operations; problems are failed output checks."""
        self.failed += ops
        for p in problems:
            self.problems.append("%s: %s" % (what, p))
            log("CHECK FAILED %s: %s" % (what, p))
        if not problems:
            log("FAILED %s" % what)

    def worker(self, commands, trace):
        """Run commands in one worker process; returns its result or None."""
        self.n_workers += 1
        spec = os.path.join(self.run_dir, "worker%d.json" % self.n_workers)
        out = os.path.join(self.run_dir, "worker%d.out.json" % self.n_workers)
        with open(spec, "w") as f:
            json.dump({"src": SRC, "commands": commands, "trace": trace}, f)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, spec, out],
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            log("worker timed out: %s" % commands[0][0])
            self.deadline = 0
            return None
        if proc.stderr:
            log(proc.stderr.decode(errors="replace").rstrip())
        if not os.path.exists(out):
            return None
        with open(out) as f:
            return json.load(f)

    def setup(self, repeats, trace):
        """Simulate every sequence `repeats` times; returns the set-up time."""
        k = len(self.gt_dirs)
        commands = []
        for r in range(repeats):
            for i in range(k):
                target = self.gt_dirs[i] if r == 0 else "%s.r%d" % (self.gt_dirs[i], r)
                commands.append(["simulate", "--config", os.path.join(self.run_dir, "sim%d.json" % i), "--out", target])
        self.attempted += len(commands)
        result = self.worker(commands, trace)
        done = result["commands"] if result else []
        if len(done) != len(commands) or any(c["rc"] != 0 for c in done):
            raise SystemExit("error: lineage simulate failed, so there is nothing to track")
        if trace:
            self.trace_parts.append(("setup", 1.0, result["trace"]))
        for i, gt in enumerate(self.gt_dirs):
            try:
                problems, cells = checks.check_gt_tree(gt, self.workload.scripted_events())
            except UNREADABLE as exc:
                raise SystemExit("error: unreadable input tree %s: %s" % (gt, exc))
            digest = tree_digest(gt)
            for r in range(1, repeats):
                again = "%s.r%d" % (gt, r)
                if tree_digest(again) != digest:
                    problems.append("simulate repeat %d wrote different bytes" % r)
                shutil.rmtree(again)
            if problems:
                self.fail("simulate %d" % i, problems)
            self.gt_cells.append(cells)
        times = [sum(c["s"] for c in done[r * k : (r + 1) * k]) for r in range(repeats)]
        return result["import_s"] + statistics.median(times)

    def round(self, index, trace):
        """Track, then evaluate, every sequence once; False when out of time."""
        scores = []
        for i, gt in enumerate(self.gt_dirs):
            pred = os.path.join(self.run_dir, "pred%d_%d" % (index, i))
            if self.track(i, gt, pred, trace):
                scores.append(self.evaluate(i, gt, pred, trace))
            else:
                self.attempted += self.evaluate_repeats(trace)
                self.fail("evaluate %d (its track failed)" % i, [], self.evaluate_repeats(trace))
            shutil.rmtree(pred, ignore_errors=True)
        if self.scores is None and None not in scores and len(scores) == len(self.gt_dirs):
            self.scores = scores
        return self.deadline > time.monotonic()

    def track(self, i, gt, pred, trace):
        """One `lineage track` process for sequence i; True if its output passed."""
        self.attempted += 1
        result = self.worker([["track", "--in", gt, "--out", pred] + self.track_args], trace)
        if result is None or not result["commands"] or result["commands"][0]["rc"] != 0:
            self.fail("track %d" % i, [])
            return False
        try:
            problems = checks.check_track_tree(gt, pred, MIN_CELL_SIZE, CONNECTIVITY)
        except UNREADABLE as exc:
            problems = ["unreadable output: %s" % exc]
        if trace:
            self.trace_parts.append(("track %d" % i, None, result["trace"]))
            problems += ["oracle: " + p for p in result["trace"]["oracle_problems"]]
            self.oracle_checked += result["trace"]["oracle_checked"]
        digest = tree_digest(pred)
        if self.first_outputs.setdefault(i, digest) != digest:
            problems.append("output differs from the first round's")
        if problems:
            self.fail("track %d" % i, problems)
            return False
        if trace:
            self.samples["traced_track_s"].append((i, result["commands"][0]["s"]))
        else:
            self.samples["track_s"].append((i, result["commands"][0]["s"]))
            self.samples["rss_kb"].append((i, result["maxrss_kb"]))
        return True

    @staticmethod
    def evaluate_repeats(trace):
        # traced rounds evaluate once, so that their spans count one pass
        return 1 if trace else EVALUATE_REPEATS

    def evaluate(self, i, gt, pred, trace):
        """`lineage evaluate` of sequence i, repeated in one process;
        returns (SEG, TRA), or None if it failed."""
        repeats = self.evaluate_repeats(trace)
        self.attempted += repeats
        result = self.worker([["evaluate", "--gt", gt, "--pred", pred]] * repeats, trace)
        done = result["commands"] if result else []
        if len(done) != repeats or any(c["rc"] != 0 for c in done):
            self.fail("evaluate %d" % i, [], repeats)
            return None
        if trace:
            self.trace_parts.append(("evaluate %d" % i, None, result["trace"]))
        try:
            problems, seg, tra = checks.check_evaluation(gt, pred)
        except UNREADABLE as exc:
            problems = ["unreadable report: %s" % exc]
        if problems:
            self.fail("evaluate %d" % i, problems, repeats)
            return None
        self.samples["evaluate_s"] += [(i, c["s"]) for c in done]
        return seg, tra

    def measure(self, seconds, trace):
        """Whole rounds (untraced and traced pairs when tracing) until
        `seconds` have passed."""
        start = time.monotonic()
        index = 0
        while time.monotonic() - start < seconds:
            for traced in (False, True) if trace else (False,):
                index += 1
                if not self.round(index, traced):
                    return

    def per_sequence(self, kind):
        """Median over rounds of each sequence's samples, by sequence."""
        by_seq = {}
        for i, value in self.samples[kind]:
            by_seq.setdefault(i, []).append(value)
        return {i: statistics.median(values) for i, values in by_seq.items()}

    def end_to_end(self, setup_s):
        track = self.per_sequence("track_s")
        return {
            "setup_s": (setup_s, "s"),
            "track_s": (statistics.fmean(track.values()), "s"),
            "evaluate_s": (statistics.fmean(self.per_sequence("evaluate_s").values()), "s"),
            "cell_frames_per_s": (sum(self.gt_cells[i] for i in track) / sum(track.values()), "cell-frames/s"),
            "peak_rss_mb": (statistics.fmean(self.per_sequence("rss_kb").values()) / 1024.0, "MB"),
            "seg": (statistics.fmean(s for s, _ in self.scores), "score"),
            "tra": (statistics.fmean(t for _, t in self.scores), "score"),
        }

    def per_layer(self):
        traced_rounds = len(self.samples["traced_track_s"]) / len(self.gt_dirs)
        totals, counters = {}, {}
        for label, share, part in self.trace_parts:
            weight = share if share is not None else 1.0 / traced_rounds
            for name, (calls, incl, self_s) in part["totals"].items():
                t = totals.setdefault(name, [0.0, 0.0, 0.0])
                t[0] += weight * calls
                t[1] += weight * incl
                t[2] += weight * self_s
            for name, value in part["counters"].items():
                counters[name] = counters.get(name, 0.0) + weight * value
        metrics = tracing.layer_metrics(totals, counters)
        traced, untraced = self.per_sequence("traced_track_s"), self.per_sequence("track_s")
        overhead = statistics.fmean(traced.values()) - statistics.fmean(untraced.values())
        metrics["trace.overhead_s"] = (overhead, "s")
        return metrics

    def write_trace(self, path):
        with open(path, "w") as f:
            json.dump([{"process": label, "spans": part["spans"]} for label, _, part in self.trace_parts], f)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "celllineage", "cli.py")):
        log("error: no program source at %s" % os.path.join(SRC, "celllineage"))
        return 2

    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and the finally clause below removes the scratch trees
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, "run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(run_dir)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, run_dir)
        trace = bool(args.trace)
        setup_s = run.setup(1 if trace else SETUP_REPEATS, trace)
        run.measure(args.seconds, trace)
        complete = run.samples["track_s"] and run.samples["evaluate_s"] and run.scores is not None
        if not complete or (trace and not run.samples["traced_track_s"]):
            log("error: no track and evaluate round completed")
            return 1
        if trace:
            metrics = run.per_layer()
            path = os.path.join(WORK, "trace-%s-seed%d.json" % (args.workload, args.seed))
            run.write_trace(path)
            log("spans written to %s; %d sampled calls checked against oracles" % (path, run.oracle_checked))
        else:
            metrics = run.end_to_end(setup_s)
            log("%d tracks of %d sequences" % (len(run.samples["track_s"]), len(run.gt_dirs)))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
