"""End-to-end benchmark of the ifsec command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: children run the CLI from
`src/`, nothing is installed. The workloads and the outcome each
command must have are in workloads.py. Every workload in turn:

    for w in state-space ni-bounded spec-files small-models; do
        python3 bench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

The benchmark's own tests: python3 -m unittest discover -s bench -t bench

One run sets the workload up several times and reports the median
(`setup_s`): each set-up writes the workload's generated inputs and
starts one child that imports `ifsec.cli` and exits. Then it runs
passes over the workload's commands, one child at a time, while the
next pass is expected to end less than half a pass after S seconds; it
always runs at least two, so each report can be compared with its
repetition. Each
child's wall time and peak RSS come from `os.wait4`.

The host's CPUs change speed for seconds at a time, so the run keeps
itself and its children on one CPU and scales every timed child, and
every set-up, by that CPU's speed during it (speed.py): the times
reported, `wall_s` and `setup_s` included, are seconds at a fixed
reference speed. The raw wall times are in the results file, and the
per-layer times of traced children are raw.

With `--trace 0` the run reports the end-to-end metrics: `wall_s`, the
median over passes of a pass's summed child wall times; `peak_rss_mb`,
the largest peak RSS of any child; and `setup_s`. With `--trace 1`
every other pass runs each child under tracer.py and the run reports
the per-layer metrics of layers.py, medians over the traced passes,
plus `trace.overhead_ratio`, traced over untraced pass wall time.

Every command's outcome is checked (outcome.py); `attempted` and
`failed` in the result count command executions, so `failed_frac` is
failed over attempted. Human-readable lines come first: the
environment, one row per command (median wall time, peak RSS) and the
workload totals. The last line of stdout is the JSON result. A copy of
everything, with the spans' sums, goes to
`.bench_work/results/<workload>-seed<N>-trace<T>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import layers
import outcome
import speed
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPETITIONS = 7
MIN_PASSES = 2
#: Passes stop starting after this many seconds, and a child still
#: running this long after the run began is killed, so that a run ends
#: well within three minutes whatever the program does.
LAST_START_S = 100.0
KILL_AFTER_S = 165.0


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(argv: list[str], cwd: str, env: dict[str, str], stdout_path: str,
          stderr_path: str, timeout: float) -> tuple[int, float, float, float]:
    """Run one child to its end: (exit code, start, end, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, started, ended, usage.ru_maxrss / 1024.0


def read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


def git_revision(root: str) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Run:
    def __init__(self, root: str, workload: workloads.Workload, seed: int,
                 seconds: int, trace: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = child_env(root)
        self.work = os.path.join(root, ".bench_work", workload.name)
        self.inputs = os.path.join(self.work, "inputs")
        self.began = time.perf_counter()
        self.first_stdout: dict[str, str] = {}
        self.rows: dict[str, dict] = {c.name: {"wall_s": [], "raw_wall_s": [],
                                               "rss_mb": [], "wrong": 0}
                                      for c in workload.commands}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.speed = speed.Speedometer()

    def remaining(self) -> float:
        return KILL_AFTER_S - (time.perf_counter() - self.began)

    def setup_once(self) -> float:
        started = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.inputs)
        self.workload.prepare(self.seed, self.inputs)
        log = os.path.join(self.work, "import")
        code, _, _, _ = spawn([sys.executable, "-c", "import ifsec.cli"],
                              self.inputs, self.env, log + ".out",
                              log + ".err", self.remaining())
        elapsed = self.speed.scaled(started, time.perf_counter())
        if code != 0:
            raise RuntimeError("cannot import ifsec.cli from src/: "
                               + read(log + ".err").strip())
        return elapsed

    def run_pass(self, index: int,
                 traced: bool) -> tuple[float, float, list[dict]]:
        wall = raw_wall = 0.0
        totals = []
        out_of = {}
        for number, command in enumerate(self.workload.commands):
            stem = os.path.join(self.work, f"c{number}")
            argv = list(command.argv)
            if command.replay_of is not None:
                argv.append(out_of[command.replay_of])
            if traced:
                spans = f"{stem}.spans.json"
                if os.path.exists(spans):
                    os.remove(spans)
                argv = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"),
                        spans, f"p{index}c{number}", *argv]
            else:
                argv = [sys.executable, "-m", "ifsec.cli", *argv]
            code, started, ended, rss = spawn(argv, self.inputs, self.env,
                                              stem + ".out", stem + ".err",
                                              self.remaining())
            seconds = ended - started
            scaled = self.speed.scaled(started, ended)
            out_of[command.name] = stem + ".out"
            result = outcome.ChildResult(code, read(stem + ".out"),
                                         read(stem + ".err"))
            self.check(command, result, index)
            row = self.rows[command.name]
            row["wall_s"].append(scaled)
            row["raw_wall_s"].append(seconds)
            row["rss_mb"].append(rss)
            wall += scaled
            raw_wall += seconds
            if traced and os.path.exists(spans):
                with open(spans, encoding="utf-8") as handle:
                    totals.append(layers.command_totals(json.load(handle),
                                                        seconds))
        return wall, raw_wall, totals

    def check(self, command: workloads.Command,
              result: outcome.ChildResult, index: int) -> None:
        found = outcome.problems(command, result,
                                 self.first_stdout.get(command.name))
        self.first_stdout.setdefault(command.name, result.stdout)
        self.attempted += 1
        if found:
            self.failed += 1
            self.rows[command.name]["wrong"] += 1
            self.problems.extend(
                f"pass {index}, {command.name}: {p} (expected per "
                f"{command.source})" for p in found)

    def measure(self) -> dict:
        load_start = os.getloadavg()
        setups = [self.setup_once() for _ in range(SETUP_REPETITIONS)]
        measure_start = time.perf_counter()
        untraced_walls, traced_walls, traced_layers = [], [], []
        raw_walls: dict[bool, list[float]] = {False: [], True: []}
        index = 0
        while True:
            traced = self.trace and index % 2 == 0
            wall, raw_wall, totals = self.run_pass(index, traced)
            raw_walls[traced].append(raw_wall)
            if traced:
                traced_walls.append(wall)
                traced_layers.append(layers.pass_metrics(totals))
            else:
                untraced_walls.append(wall)
            index += 1
            elapsed = time.perf_counter() - measure_start
            typical = statistics.median(traced_walls + untraced_walls)
            if index >= MIN_PASSES and (
                    elapsed + typical / 2 > self.seconds
                    or time.perf_counter() - self.began > LAST_START_S):
                break
        shutil.rmtree(self.inputs, ignore_errors=True)

        if self.trace:
            metrics = {name: statistics.median(p[name] for p in traced_layers)
                       for name, *_ in layers.LAYER_METRICS}
            metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                               / statistics.median(untraced_walls))
            units = {name: unit for name, unit, *_ in layers.LAYER_METRICS}
        else:
            metrics = {
                "wall_s": statistics.median(untraced_walls),
                "peak_rss_mb": max(max(r["rss_mb"]) for r in self.rows.values()),
                "setup_s": statistics.median(setups),
            }
            units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        return {
            "environment": {
                "python": platform.python_version(),
                "revision": git_revision(self.root),
                "nproc": os.cpu_count(),
                "loadavg_start": load_start,
                "loadavg_end": os.getloadavg(),
                "workload": self.workload.name,
                "seed": self.seed,
                "seconds": self.seconds,
                "trace": int(self.trace),
                "passes": index,
                "traced_passes": len(traced_walls),
                "setup_repetitions": SETUP_REPETITIONS,
                "cpu": sorted(os.sched_getaffinity(0)),
                "speed_reference_s": speed.REFERENCE_S,
            },
            "commands": [{
                "name": c.name,
                "argv": list(c.argv),
                "median_wall_s": statistics.median(self.rows[c.name]["wall_s"]),
                "peak_rss_mb": max(self.rows[c.name]["rss_mb"]),
                "runs": len(self.rows[c.name]["wall_s"]),
                "wall_s_samples": self.rows[c.name]["wall_s"],
                "raw_wall_s_samples": self.rows[c.name]["raw_wall_s"],
                "wrong": self.rows[c.name]["wrong"],
            } for c in self.workload.commands],
            "totals": {
                "untraced_pass_walls": untraced_walls,
                "traced_pass_walls": traced_walls,
                "raw_untraced_pass_walls": raw_walls[False],
                "raw_traced_pass_walls": raw_walls[True],
                "speed_loop_cpu_s": [cpu for *_, cpu in self.speed.samples],
                "setup_s_samples": setups,
                "failed_frac": f"{self.failed}/{self.attempted}",
            },
            "traced_pass_layers": traced_layers,
            "problems": self.problems,
            "result": {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in metrics.items()},
            },
        }


def print_report(record: dict) -> None:
    env = record["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for row in record["commands"]:
        print(f"command {row['name']!r}: median {row['median_wall_s']:.3f} s, "
              f"peak RSS {row['peak_rss_mb']:.1f} MB, runs {row['runs']}, "
              f"wrong {row['wrong']}")
    totals = record["totals"]
    result = record["result"]
    print(f"failed_frac: {totals['failed_frac']} commands")
    for name, metric in result["metrics"].items():
        samples = ""
        if name == "wall_s":
            raw = statistics.median(totals["raw_untraced_pass_walls"])
            samples = (f" (median of {len(totals['untraced_pass_walls'])} "
                       f"passes; raw wall {raw:.6g} s)")
        elif name == "setup_s":
            samples = f" (median of {len(totals['setup_s_samples'])} set-ups)"
        print(f"{name}: {metric['value']:.6g} {metric['unit']}{samples}")
    for problem in record["problems"]:
        print(f"wrong: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ifsec", "cli.py")):
        print("bench: run from the root of an ifsec checkout "
              "(src/ifsec/cli.py not found)", file=sys.stderr)
        return 2
    speed.pin()
    run = Run(root, workloads.WORKLOADS[args.workload], args.seed,
              args.seconds, bool(args.trace))
    try:
        record = run.measure()
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        run.speed.stop()
    results = os.path.join(root, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
