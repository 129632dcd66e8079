"""Paired benchmark runs: a base commit against the working tree.

Usage (from the repository root):

    python3 scripts/bench_pair.py --base 96c180f --out BENCH_6.json
    python3 scripts/bench_pair.py --base 96c180f --seeds 11-20 --workload search \
        --out held_out.json

The base commit is exported with ``git archive`` into a temporary directory.
For each seed of ``--seeds A-B`` (default ``1-10``) and each workload named
by a ``--workload W`` option (repeatable; default: every workload in
``BENCHMARK.json``),
``benchmark/run.py --workload W --seed S --seconds <run_seconds> --trace 0``
runs once in the base copy and once in the working tree, the base first on
odd seeds and the working tree first on even ones.  The output's
``command`` records both options, so a held-out seed range goes through the
same verdict code as the default one.  The output file holds
every pair of results and, for each workload and end-to-end metric, each
side's median and quartiles, the pairs the change won and lost, and a
verdict against the metric's bound in ``BENCHMARK.json``:

- ``regression``: the change's median is worse than the base median by more
  than the bound;
- ``unresolved``: otherwise, when the base runs spread (interquartile range
  over median) wider than the bound and not every change run is better than
  every base run;
- ``gain``: otherwise, when the change wins at least nine tenths of the
  pairs (ties count for neither), the medians differ by more than the base
  interquartile range, and the change fails no larger share of its
  operations than the base;
- ``within_bound``: otherwise.

Each workload also reports the operations attempted and failed on each side,
and ``failed_share`` is ``regression`` when the change fails a larger share
of its operations than the base, else ``within_bound``.

The output also records the interpreter facts that move the numbers:
``sys.version``, the installed numpy version as ``benchmark/run.py`` reads
it (``None`` when numpy is absent; the package no longer imports it, and
the key stays so that older ``BENCH_*.json`` files compare),
``os.cpu_count()`` and ``sys.flags.dont_write_bytecode``.
The last is set by ``PYTHONDONTWRITEBYTECODE``, which every child run
inherits; with it set, each cold ``reproduce`` child compiles all of
``src/euclid4`` again (about half of ``import euclid4.cli``), so
``reproduce`` numbers taken with and without a bytecode cache are not
comparable.  ``start_ms`` holds the medians of ``START_SAMPLES`` cold
``python -c pass`` and ``python -S -c pass`` children, alternated: their
difference is what the host's ``site`` startup hooks (``.pth`` files) add
to every interpreter, and so to each ``reproduce`` operation, before the
package is imported.  ``import_ms`` holds, for the base and the change, the
median of ``START_SAMPLES`` cold ``python -S -c "import euclid4.cli"``
children with the bytecode cache off, the two sides alternated: the part
of each cold ``reproduce`` operation that the package's import costs.
``site_import_ms`` holds the same medians for ``python -c "import
euclid4.cli"`` children, timed in the same rounds: the import with the
host's ``site`` hooks on, as each ``reproduce`` operation pays it (the
hooks may preload modules that the package would otherwise import).

``--base HEAD`` on a clean working tree compares the code with itself: an
A/A pass that shows the side bias and the host drift of the method.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run.py ends every run within 180 s; a run past this has hung.
RUN_TIMEOUT_S = 300
# Alternated base/change pairs per workload by default, one per seed
# 1..PAIRS; a gain needs the change to win at least nine tenths of them.
PAIRS = 10
# Cold interpreter starts timed for each of the two start_ms medians.
START_SAMPLES = 15


def export_commit(rev: str, dest: Path) -> str:
    """Extract the tree of rev into dest; return its full commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its environment and result lines."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = json.loads(lines[-2])["environment"]
    result = json.loads(lines[-1])
    return {
        "source_sha256": env["source_sha256"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def start_ms(run=subprocess.run, clock=time.perf_counter, samples=START_SAMPLES) -> dict:
    """Medians, in ms, of cold ``python -c pass`` and ``python -S -c pass``
    children, alternated; run and clock are injectable for the tests."""
    children = {"python -c pass": ["-c", "pass"], "python -S -c pass": ["-S", "-c", "pass"]}
    times: dict[str, list[float]] = {name: [] for name in children}
    for _ in range(samples):
        for name, flags in children.items():
            start = clock()
            run([sys.executable, *flags], check=True)
            times[name].append((clock() - start) * 1000)
    return {name: statistics.median(ms) for name, ms in times.items()}


def import_ms(checkouts: dict[str, Path], run=subprocess.run, clock=time.perf_counter,
              samples=START_SAMPLES) -> dict:
    """Medians, in ms, of cold ``python -S -c "import euclid4.cli"``
    (``import_ms``) and ``python -c "import euclid4.cli"``
    (``site_import_ms``) children for each checkout, importing from its
    ``src`` with no bytecode written or read; in each round both children
    run for every side, and the sides take turns going first.  run and
    clock are injectable for the tests."""
    children = {"import_ms": ["-S", "-c", "import euclid4.cli"],
                "site_import_ms": ["-c", "import euclid4.cli"]}
    times = {key: {side: [] for side in checkouts} for key in children}
    order = list(checkouts)
    for _ in range(samples):
        for side in order:
            env = {**os.environ, "PYTHONPATH": str(checkouts[side] / "src"),
                   "PYTHONDONTWRITEBYTECODE": "1"}
            for key, flags in children.items():
                start = clock()
                run([sys.executable, *flags], check=True, env=env)
                times[key][side].append((clock() - start) * 1000)
        order.reverse()
    return {key: {side: statistics.median(ms) for side, ms in sides.items()}
            for key, sides in times.items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def failed_share(side: dict) -> float:
    return side["failed"] / side["attempted"] if side["attempted"] else 0.0


def verdict(base: list[float], change: list[float], better: str, bound: float,
            change_fails_more: bool) -> dict:
    """Compare paired runs of one metric on one workload (see the module
    docstring for the rules)."""
    sign = 1 if better == "lower" else -1
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    rel = (c_med - b_med) / b_med if b_med else 0.0
    spread = (b3 - b1) / b_med if b_med else 0.0
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if sign * rel > bound:
        outcome = "regression"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif wins >= 0.9 * len(base) and abs(c_med - b_med) > b3 - b1 and not change_fails_more:
        outcome = "gain"
    else:
        outcome = "within_bound"
    return {
        "base": {"median": b_med, "q1": b1, "q3": b3},
        "change": {"median": c_med, "q1": c1, "q3": c3},
        "relative_change": rel,
        "base_relative_iqr": spread,
        "change_wins": wins,
        "change_losses": losses,
        "bound": bound,
        "verdict": outcome,
    }


def seed_range(text: str) -> range:
    """The seeds A..B of an "A-B" option value, 1 <= A <= B."""
    first, sep, last = text.partition("-")
    if not (sep and first.isdecimal() and last.isdecimal() and 1 <= int(first) <= int(last)):
        raise argparse.ArgumentTypeError(f"expected A-B with 1 <= A <= B, got {text!r}")
    return range(int(first), int(last) + 1)


def parse_args(argv, workloads: list[str]) -> argparse.Namespace:
    """The options, with args.workloads the workloads to run: those named by
    --workload, in BENCHMARK.json's order, else every one of workloads."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="commit to compare the working tree against")
    parser.add_argument("--out", required=True, help="output JSON file, e.g. BENCH_<pr>.json")
    parser.add_argument("--seeds", type=seed_range, default=range(1, PAIRS + 1),
                        help=f"seed range A-B, one pair per seed (default 1-{PAIRS})")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="a workload to run; repeat for more (default: all)")
    args = parser.parse_args(argv)
    args.workloads = [w for w in workloads if w in (args.workload or workloads)]
    return args


def command_line(args: argparse.Namespace) -> str:
    """The command that repeats the run, with both the seeds and the
    workloads recorded."""
    seeds = f"{args.seeds[0]}-{args.seeds[-1]}"
    named = "".join(f" --workload {w}" for w in args.workloads)
    return f"python3 scripts/bench_pair.py --base {args.base} --seeds {seeds}{named} --out {args.out}"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    workloads = args.workloads
    seconds = spec["run_seconds"]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    interpreter_start = start_ms()
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_dir = Path(tmp)
        base_commit = export_commit(args.base, base_dir)
        package_import = import_ms({"base": base_dir, "change": ROOT})
        for seed in args.seeds:
            order = ("base", "change") if seed % 2 else ("change", "base")
            for w in workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(base_dir if side == "base" else ROOT, w, seed, seconds)
                runs[w].append(pair)
                print(json.dumps({"workload": w, **pair}), flush=True)

    summary = {}
    for w, pairs in runs.items():
        summary[w] = {
            side: {"attempted": sum(p[side]["attempted"] for p in pairs),
                   "failed": sum(p[side]["failed"] for p in pairs)}
            for side in ("base", "change")
        }
        fails_more = failed_share(summary[w]["change"]) > failed_share(summary[w]["base"])
        summary[w]["failed_share"] = "regression" if fails_more else "within_bound"
        for metric in spec["end_to_end"]:
            name = metric["name"]
            summary[w][name] = verdict([p["base"]["metrics"][name] for p in pairs],
                                       [p["change"]["metrics"][name] for p in pairs],
                                       metric["better"], metric["bound"], fails_more)
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    doc = {
        "command": command_line(args),
        "base_commit": base_commit,
        "change": "working tree",
        "run_seconds": seconds,
        "interpreter": {"version": sys.version, "numpy": numpy_version,
                        "cpu_count": os.cpu_count(),
                        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
                        "start_ms": interpreter_start, **package_import},
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
