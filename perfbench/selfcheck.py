"""Checks on the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  It checks that

- the harness reaches ``raytheta`` only through names in ``raytheta.__all__``
  and ``raytheta.cli.main`` (attribute reads on ``rt`` and ``cli`` in the
  harness sources, and every wrapped span target), so that private caches and
  helpers can be deleted without breaking the benchmark;
- every metric in ``BENCHMARK.json`` has a unit, and its per-layer list is
  the one the traced run reports;
- two traced instances of every workload with seed SEED report identical work
  counts (every ``.calls``, ``.ideals``, ``.terms_out``, ``.coeffs`` and the
  other counts of ``spans.COUNT_SUFFIXES``).

Prints one line per check and exits 0 only if all pass.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

HARNESS = ("run.py", "worker.py", "spans.py", "workloads.py")
SEED = 1


def public_names() -> list[str]:
    """Problems with the harness's use of raytheta names."""
    import raytheta as rt
    import raytheta.cli as cli

    public = set(rt.__all__)
    problems = []
    for fname in HARNESS:
        tree = ast.parse(open(os.path.join(HERE, fname)).read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and not node.attr.startswith("__")):
                if node.value.id == "rt" and node.attr not in public:
                    problems.append(f"{fname}:{node.lineno}: rt.{node.attr} is not in raytheta.__all__")
                if node.value.id == "cli" and node.attr != "main":
                    problems.append(f"{fname}:{node.lineno}: cli.{node.attr} is not raytheta.cli.main")
    for name, owner, attr in spans.targets(rt, cli):
        if owner is cli:
            ok = attr == "main"
        elif owner is rt:
            ok = attr in public
        else:
            ok = owner.__name__ in public and not (attr.startswith("_") and not attr.startswith("__"))
        if not ok:
            problems.append(f"span {name}: {getattr(owner, '__name__', owner)}.{attr} is not public")
    return problems


def benchmark_units() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = [f"{m['name']}: no unit" for key in ("end_to_end", "per_layer") for m in spec[key] if not m.get("unit")]
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    reported = [(name, unit) for name, unit, _ in spans.PER_LAYER]
    if declared != reported:
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    return problems


def traced_counts(workload: str, seed: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed), "--trace"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    values = spans.per_layer(report["trace"], 1.0, report["wall"], report["wall"])
    return {k: v for k, v in values.items() if k.endswith(spans.COUNT_SUFFIXES)}


def main() -> int:
    failed = False

    def check(label: str, problems: list[str]) -> None:
        nonlocal failed
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}")
        for p in problems:
            print(f"    {p}")

    check("public raytheta names only", public_names())
    check("every metric has a unit", benchmark_units())
    for w in sorted(workloads.WORKLOADS):
        a, b = traced_counts(w, SEED), traced_counts(w, SEED)
        check(f"{w}: {len(a)} counts repeat across two traced runs (seed {SEED})",
              [f"{k}: {a[k]} then {b[k]}" for k in a if a[k] != b[k]])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
