"""One benchmark instance: a fresh process that runs one workload and reports it.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--spans FILE] [--setup-only]

The worker imports ``raytheta`` from the checkout's ``src/``, builds the
workload's steps from the seed, and marks itself ready; the time from process
launch to that point is the set-up time.  It then runs every step through
``raytheta.cli.main`` or the public API, checks every verdict, and prints one
JSON object on its last line of standard output.  Program output is captured
and parsed, never shown.

From its first line on, the worker also times a fixed probe kernel every
PROBE_INTERVAL_S of wall time (see ``SpeedProbe``).  The harmonic mean of
the probe times says how fast the host ran this process, so that ``run.py``
can scale the instance's times to a reference host speed.
"""

from __future__ import annotations

import gc
import signal
import time

PROBE_INTERVAL_S = 0.02


def probe_kernel() -> int:
    """A fixed slice of pure-Python work (integer arithmetic and dict updates)."""
    x, d = 1, {}
    for i in range(300):
        x = (x * 1103515245 + 12345) % 2147483648
        d[x & 255] = d.get(x & 255, 0) + i
    return x


class SpeedProbe:
    """Times ``probe_kernel`` every PROBE_INTERVAL_S of wall time, on this CPU,
    in between the program's own bytecodes, to follow the host's speed.

    On a shared host the same work can take twice as long from one ten-second
    stretch to the next; the probe slows down with the program, so the ratio
    of the two stays steady where either alone does not.

    The samples are spaced evenly in time, but the program's wall time is
    its work weighted by how slow the host was while it did it, so the
    factor is the harmonic mean of the samples: each sample counts by the
    probe work its interval allows.  A stretch at half speed then counts as
    it does for the program, and one sample that lands on a descheduling
    moves the factor by at most 1/len(samples).  The collector is off while
    the probe runs, so no sample includes a collection of the program's heap.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_kernel()
        self.samples.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def harmonic_mean(self, start: int = 0, end=None) -> float:
        """Harmonic mean probe time in seconds of samples[start:end] (0.0 if none)."""
        window = self.samples[start:end]
        return len(window) / sum(1 / t for t in window) if window else 0.0


PROBE = SpeedProbe().start() if __name__ == "__main__" else None

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


class Tally:
    """Operations and report rows of one instance, judged against the truth."""

    def __init__(self) -> None:
        self.ops = 0
        self.ops_failed = 0
        self.rows = 0
        self.rows_passed = 0
        self.problems: list[str] = []

    def crashed(self, step, why: str) -> None:
        """A traceback or exit 2/3: every row the step should have made failed."""
        self.ops += 1
        self.ops_failed += 1
        self.rows += step.rows
        self.problems.append(f"{step.label}: {why}")

    def report(self, step, rows: list[dict], code: int) -> None:
        self.ops += 1
        self.rows += max(len(rows), step.rows)
        if len(rows) < step.rows:
            self.problems.append(f"{step.label}: {len(rows)} rows, expected {step.rows}")
        # A row that is not the one asked for (lower truncation, other
        # params) is wrong, however it is marked.
        wrong = [(r, step.mismatches(r)) for r in rows]
        self.problems += [f"{step.label}: {r.get('name')} {r.get('params')}: {p}" for r, ps in wrong for p in ps]
        self.rows_passed += sum(1 for r, ps in wrong if r.get("pass") is True and not ps)
        if code != (0 if all(r.get("pass") is True for r in rows) else 1):
            self.problems.append(f"{step.label}: exit {code} disagrees with the verdicts")
        for r in rows:
            if r.get("pass") is not True and not workloads.known_defect(r):
                self.problems.append(f"{step.label}: {r.get('name')} {r.get('params')} FAIL")


def run_cli(cli, step, tally: Tally) -> None:
    """One ``raytheta`` invocation; exit 0 or 1 is a report, 2 or 3 a crash."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(step.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        tally.crashed(step, "traceback: " + traceback.format_exc(limit=3).replace("\n", " | "))
        return
    if code not in (0, 1):
        tally.crashed(step, f"exit {code}: {err.getvalue().strip()[:200]}")
        return
    try:
        rows = json.loads(out.getvalue())
    except ValueError:
        tally.crashed(step, "output is not a JSON report list")
        return
    tally.report(step, rows, code)


def run_round_trip(rt, step, tally: Tally) -> None:
    """theta(r,k) * theta(s,ell) against the direct coset sum and the ray class sum."""
    r, k, s, ell = step.product
    T = workloads.ROUND_TRIP_TRUNC
    try:
        spec = rt.product_to_coset(r, k, s, ell)
        direct = rt.coset_theta_direct(spec, T)
        via_ray = rt.coset_to_rayclass(spec).theta(T)
        product = rt.theta_gen(r, k, T) * rt.theta_gen(s, ell, T)
        ok = rt.equals_to_order(product, direct, T)[0] and rt.equals_to_order(product, via_ray, T)[0]
    except Exception:
        tally.crashed(step, "traceback: " + traceback.format_exc(limit=3).replace("\n", " | "))
        return
    row = {"name": "round_trip", "params": {"product": step.product}, "trunc": [T.numerator, T.denominator], "pass": ok}
    tally.report(step, [row], 0 if ok else 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import raytheta as rt
    import raytheta.cli as cli

    if not os.path.abspath(rt.__file__).startswith(SRC + os.sep):
        print(f"raytheta imported from {rt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    steps = workloads.build(args.workload, args.seed)
    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder().install(rt, cli)
    ready = time.monotonic()
    setup_samples = len(PROBE.samples)
    if args.setup_only:
        PROBE.stop()
        print(json.dumps({"ready": ready, "setup_probe_s": PROBE.harmonic_mean(0, setup_samples)}))
        return 0

    tally = Tally()
    t0 = time.perf_counter()
    for step in steps:
        if step.argv:
            run_cli(cli, step, tally)
        else:
            run_round_trip(rt, step, tally)
    wall = time.perf_counter() - t0
    PROBE.stop()
    result = {
        "ready": ready,
        "wall": wall,
        "setup_probe_s": PROBE.harmonic_mean(0, setup_samples),
        "probe_s": PROBE.harmonic_mean(setup_samples),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": tally.ops,
        "ops_failed": tally.ops_failed,
        "rows": tally.rows,
        "rows_passed": tally.rows_passed,
        "problems": tally.problems,
    }
    if recorder is not None:
        recorder.uninstall()
        result["trace"] = recorder.summary()
        if args.spans:
            recorder.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
