"""The raytheta benchmark: cold-process verification workloads, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every instance of the workload is a fresh single-threaded Python process
(``worker.py``) with empty module caches, and no ``--jobs`` or ``--cache``.

``--trace 0`` first launches SETUP_RUNS set-up-only processes, then
instances of the workload one after another for about ``--seconds`` seconds
(at least MIN_INSTANCES of them, so a sec54_cold run takes longer), and reports the end-to-end metrics:

- ``wall_s``: median time of one instance from its first CLI/API call to
  its last verdict;
- ``setup_s``: median time from process launch until the first suite call is
  ready (interpreter, ``import raytheta``, building the inputs), over the
  set-up-only processes and the instances;
- ``peak_rss_mb``: median peak resident memory of an instance;
- ``pass_ratio``: report rows whose verdict is PASS over rows attempted; a
  step that crashes or exits 2 or 3 counts all of its rows as failed.

Times are scaled to a reference host speed: each process times a fixed
probe kernel throughout (see ``worker.SpeedProbe``), and its set-up time and
its run time are each multiplied by REF_PROBE_S over the harmonic mean of
the probe times of the same stretch.  On a shared host the
unscaled times of one input drift by tens of percent within minutes, the
scaled ones by a few.  The unscaled traced wall time can be read back as
``trace.wall_s * host.probe_us / (REF_PROBE_S in us)``.

``--trace 1`` runs untraced instances for half of ``--seconds`` (at least
one) and then one traced instance, and reports the per-layer metrics of ``spans.PER_LAYER``;
its spans go to ``perfbench/out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (steps run), ``failed`` (steps that crashed) and
``metrics``; the line before it names the workload, seed and instances, with
the raw wall time and the probe time of every instance.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

# Probe time of the reference host; scaled times are in its seconds.
REF_PROBE_S = 150e-6
SETUP_RUNS = 11
# Untraced instances a run makes at least, however long they take: the median
# of two or more is much steadier than a single instance.
MIN_INSTANCES = 2
# Every process of one run must end before this many seconds have passed.
RUN_LIMIT_S = 170.0
# Workers may cache bytecode, as an installed package does, so that set-up
# time never includes compiling raytheta, whatever the caller's environment.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


class Benchmark:
    """Launches the instances of one run and keeps what they report."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.steps = workloads.build(workload, seed)
        self.start = time.monotonic()
        self.instances: list[dict] = []
        self.crashes = 0
        self.problems: list[str] = []

    def launch(self, *flags: str):
        """Run one worker process to its end; its report, or None if it crashed."""
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), *flags]
        launched = time.monotonic()
        timeout = max(1.0, RUN_LIMIT_S - (launched - self.start))
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.problems.append(f"worker {' '.join(flags)} timed out after {timeout:.0f} s")
            return None
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = None
        if proc.returncode != 0 or report is None:
            self.problems.append(f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return None
        if not report["setup_probe_s"] or ("wall" in report and not report["probe_s"]):
            self.problems.append("worker took no probe samples")
            return None
        report["setup_s"] = (report["ready"] - launched) * REF_PROBE_S / report["setup_probe_s"]
        return report

    def setup_times(self) -> list[float]:
        self.launch("--setup-only")  # compiles the bytecode once; not counted
        reports = [self.launch("--setup-only") for _ in range(SETUP_RUNS)]
        return [r["setup_s"] for r in reports if r is not None]

    def instance(self, *flags: str):
        report = self.launch(*flags)
        if report is None:
            self.crashes += 1
            return None
        report["wall_s"] = report["wall"] * REF_PROBE_S / report["probe_s"]
        self.instances.append(report)
        self.problems += report["problems"]
        return report

    def run_for(self, seconds: float, at_least: int) -> list[float]:
        """Untraced instances, at least ``at_least`` and then until the next
        one would end after ``seconds``; their scaled wall times."""
        t0 = time.monotonic()
        walls = []
        for n in itertools.count(1):
            t = time.monotonic()
            report = self.instance()
            if report is not None:
                walls.append(report["wall_s"])
            now = time.monotonic()
            if n >= at_least and now + (now - t) > t0 + seconds:
                return walls

    def result(self, metrics: dict) -> dict:
        steps = len(self.steps)
        attempted = steps * (len(self.instances) + self.crashes)
        failed = sum(r["ops_failed"] for r in self.instances) + steps * self.crashes
        return {
            "correct": not self.problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }

    def pass_ratio(self) -> float:
        rows = sum(r["rows"] for r in self.instances) + self.crashes * sum(s.rows for s in self.steps)
        return sum(r["rows_passed"] for r in self.instances) / rows


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Benchmark, seconds: float) -> dict:
    setups = bench.setup_times()
    walls = bench.run_for(seconds, MIN_INSTANCES)
    # Every instance went through the same set-up; its samples, spread over
    # the run, make the median less dependent on one stretch of host speed.
    setups += [r["setup_s"] for r in bench.instances]
    if not walls:
        return {}
    rss = statistics.median(r["peak_rss_kb"] for r in bench.instances) / 1024
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "pass_ratio": metric(bench.pass_ratio(), "ratio"),
    }


def per_layer(bench: Benchmark, seconds: float) -> dict:
    walls = bench.run_for(seconds / 2, 1)
    out = os.path.join(HERE, "out", f"spans-{bench.workload}-{bench.seed}.jsonl")
    traced = bench.instance("--trace", "--spans", out)
    if not walls or traced is None:
        return {}
    scale = REF_PROBE_S / traced["probe_s"]
    values = spans.per_layer(traced["trace"], scale, traced["wall_s"], statistics.median(walls))
    values["host.probe_us"] = traced["probe_s"] * 1e6
    return {name: metric(values[name], unit) for name, unit, _ in spans.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "raytheta", "__init__.py")):
        print(f"no raytheta sources under {ROOT}/src: run from the root of a checkout", file=sys.stderr)
        return 2
    bench = Benchmark(args.workload, args.seed)
    metrics = (per_layer if args.trace else end_to_end)(bench, args.seconds)
    for problem in bench.problems:
        print(problem, file=sys.stderr)
    if not metrics:
        print("no instance of the workload completed", file=sys.stderr)
        return 1
    raw = [round(r["wall"], 3) for r in bench.instances]
    probe = [round(r["probe_s"] * 1e6, 1) for r in bench.instances]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"instances={len(bench.instances)} crashed={bench.crashes} raw_wall_s={raw} probe_us={probe}")
    print(json.dumps(bench.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
