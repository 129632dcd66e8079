"""euclid4 benchmark: one workload, measured from outside the package.

Usage (from the repository root):

    python3 benchmark/run.py --workload {reproduce,verify,search,audit}
        --seed N --seconds S --trace {0,1}

The workload is built from the seed and run as a closed loop, one pass over
its fixed inputs after another, until S seconds have passed (at least one
pass).  Every operation's output is checked against ``data/expected.json``.

With ``--trace 0`` the result carries the end-to-end metrics: ``setup_s``
(median over several fresh processes of the time from process start to the
first timed operation), ``wall_s`` (median pass), ``op_ms.p50`` and
``op_ms.tail`` (per-operation latency), and ``peak_rss_mb``.  Times are in
reference seconds: each one is scaled by a calibration loop timed next to
it (see ``calibrate``), so that the speed of a shared host, which drifts by
a factor of two within minutes, cancels out.  The clock readings are kept
in the environment line.

With ``--trace 1`` traced and untraced passes alternate after a warm-up
pass; in a traced pass the functions of each layer are wrapped (see
``tracer.py``).  The result carries the per-layer metrics of the set-up plus
the median traced pass, and the tracing overhead: median traced pass minus
median untraced pass.

The last line of standard output is the result as JSON; the line before it
records the environment.  Both also go to ``out/``, with the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from importlib import metadata

PROCESS_START = time.monotonic()

from tracer import Tracer, diff_totals  # noqa: E402
from workloads import (  # noqa: E402
    OUT,
    WORKLOADS,
    ProgramMissing,
    git_hash,
    import_program,
    source_digest,
)

# Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_SAMPLES = 5
# Times are reported in reference seconds: seconds on a machine on which the
# calibration loop takes CAL_REF_S.  On shared cores the same pass of this
# benchmark was measured anywhere between 0.65 s and 1.55 s within minutes;
# scaled by a calibration taken next to it, its spread falls several-fold.
CAL_REF_S = 0.010
# Longest time between two calibrations inside a pass.
CAL_EVERY_S = 0.1
# An operation running longer than this has failed.
OP_TIMEOUT_S = 60.0
# No operation runs past this many seconds after process start, so that the
# whole run ends within 180 s.
HARD_LIMIT_S = 165.0


class OpTimeout(BaseException):
    """Raised in an operation that ran past its deadline.

    A BaseException, so that handlers inside the program do not swallow it.
    """


@contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"operation ran past {seconds:.1f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def percentile(values, q: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def calibrate() -> float:
    """Seconds taken by a fixed exact-arithmetic loop that shares no code
    with the program.  The collector is off, so the program's heap does not
    change the result."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 4000):
            acc += Fraction(i % 97, i % 89 + 1)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Measurement:
    """Pass times, per-operation latencies and failures of one run.

    ``walls`` and ``latencies`` are in reference seconds: each operation's
    time is scaled by CAL_REF_S over the mean of the calibrations taken just
    before and just after it.  ``raw_*`` keep the clock readings.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.raw_walls: list[float] = []
        self.raw_latencies: list[float] = []
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._pending: list[float] = []

    def record(self, elapsed: float) -> None:
        self.raw_latencies.append(elapsed)
        self._pending.append(elapsed)

    def calibrate(self) -> None:
        """Take a calibration and scale the operations timed since the last."""
        cal = calibrate()
        if self._pending:
            scale = CAL_REF_S / ((self.calibrations[-1] + cal) / 2)
            self.latencies.extend(d * scale for d in self._pending)
            self._pending.clear()
        self.calibrations.append(cal)

    def end_pass(self, ops: int) -> None:
        self.calibrate()
        self.walls.append(sum(self.latencies[-ops:]))
        self.raw_walls.append(sum(self.raw_latencies[-ops:]))


def run_passes(workload, seconds: float, measurement: Measurement, tracer=None):
    """Closed loop over the workload's operations for ``seconds`` (at least
    one pass); every outcome is checked.  A tracer gets each op's id.

    A pass's time is the sum of its operations' latencies; the checks and
    the calibrations (one at least every CAL_EVERY_S) run between them.
    """
    hard_end = PROCESS_START + HARD_LIMIT_S
    begin = time.perf_counter()
    measurement.calibrate()
    last_cal = time.perf_counter()
    while True:
        for op in workload.ops:
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                measurement.calibrate()
                last_cal = time.perf_counter()
            if tracer is not None:
                tracer.op = measurement.attempted
            measurement.attempted += 1
            result = exc = None
            t0 = time.perf_counter()
            try:
                with deadline(min(OP_TIMEOUT_S, hard_end - time.monotonic())):
                    result = workload.run_op(op)
            except (Exception, OpTimeout) as err:
                exc = err
            measurement.record(time.perf_counter() - t0)
            if not workload.check(op, result, exc):
                measurement.failed += 1
        measurement.end_pass(len(workload.ops))
        last_cal = time.perf_counter()
        if time.perf_counter() - begin >= seconds or time.monotonic() >= hard_end:
            return


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Time fresh processes from start to the end of the workload's set-up,
    in reference seconds and as read from the clock."""
    samples, raw = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        cal = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        raw.append(elapsed)
        samples.append(elapsed * CAL_REF_S / ((cal + calibrate()) / 2))
    return samples, raw


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(args, workload) -> tuple[Measurement, dict, dict]:
    setup, raw_setup = measure_setup(args)
    workload.setup()
    m = Measurement()
    run_passes(workload, args.seconds, m)
    m.failed = min(m.attempted, m.failed + workload.after())
    q = workload.tail_percentile
    tail = percentile(m.latencies, q)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(m.walls), "unit": "s"},
        "op_ms.p50": {"value": statistics.median(m.latencies) * 1000, "unit": "ms"},
        "op_ms.tail": {"value": tail * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(workload), "unit": "MB"},
    }
    details = {
        "tail_percentile": q,
        "ops_beyond_tail": sum(1 for v in m.latencies if v > tail),
        "calibration_ref_s": CAL_REF_S,
        "calibration_median_s": statistics.median(m.calibrations),
        "clock": {
            "setup_s": statistics.median(raw_setup),
            "wall_s": statistics.median(m.raw_walls),
            "op_ms.p50": statistics.median(m.raw_latencies) * 1000,
            "op_ms.tail": percentile(m.raw_latencies, q) * 1000,
        },
        "setup_samples_s": setup,
        "pass_walls_s": m.walls,
        "clock_pass_walls_s": m.raw_walls,
    }
    return m, metrics, details


def _combine(setup: dict, passes: list[dict]) -> dict:
    """Set-up totals plus the median pass, key by key."""
    out = {}
    for kind in ("calls", "self_s", "total_s", "extra"):
        keys = set(setup.get(kind, {}))
        for p in passes:
            keys |= set(p.get(kind, {}))
        middle = statistics.median_low if kind in ("calls", "extra") else statistics.median
        out[kind] = {
            k: setup.get(kind, {}).get(k, 0)
            + (middle([p.get(kind, {}).get(k, 0) for p in passes]) if passes else 0)
            for k in keys
        }
    return out


def layer_metrics(t: dict, overhead_s: float) -> dict:
    calls, self_s, total_s, extra = t["calls"], t["self_s"], t["total_s"], t["extra"]

    def count(name):
        return calls.get(name, 0)

    def busy(name):
        return self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def prefixed(values, prefix):
        return sum(v for k, v in values.items() if k.startswith(prefix))

    build = ("fields.build_biquadratic", "fields.build_cyclic_quartic")
    oracle = "admissible.brute_force_surjectivity"
    values = {
        "fields.build.calls": (sum(count(n) for n in build), "count"),
        "fields.build.self_s": (sum(busy(n) for n in build), "s"),
        "fields.registry.s": (total_s.get("fields.registry", 0.0), "s"),
        "linalg.calls": (prefixed(calls, "linalg."), "count"),
        "linalg.self_s": (prefixed(self_s, "linalg."), "s"),
        "units.unit_data.calls": (count("units.unit_data"), "count"),
        "units.unit_data.self_s": (busy("units.unit_data"), "s"),
        "units.sqrt_in_ring.calls": (count("units.sqrt_in_ring"), "count"),
        "units.sqrt_in_ring.hit_ratio": (
            ratio(extra.get("units.sqrt_in_ring.hits", 0), count("units.sqrt_in_ring")), "ratio"),
        "units.verify_unit_data.self_s": (busy("units.verify_unit_data"), "s"),
        "elements.mul.calls": (count("elements.mul"), "count"),
        "elements.mul.self_s": (busy("elements.mul"), "s"),
        "intmath.poly_roots_mod_p.calls": (count("intmath.poly_roots_mod_p"), "count"),
        "intmath.poly_roots_mod_p.self_s": (busy("intmath.poly_roots_mod_p"), "s"),
        "residues.degree_one_primes_above.calls": (count("residues.degree_one_primes_above"), "count"),
        "residues.degree_one_primes_above.self_s": (busy("residues.degree_one_primes_above"), "s"),
        "residues.splits_completely.calls": (count("residues.splits_completely"), "count"),
        "intmath.is_prime.calls": (count("intmath.is_prime"), "count"),
        "intmath.mult_order.calls": (count("intmath.mult_order"), "count"),
        "intmath.mult_order.self_s": (busy("intmath.mult_order"), "s"),
        "residues.unit_order_mod_p2.calls": (count("residues.unit_order_mod_p2"), "count"),
        "residues.unit_order_mod_p2.self_s": (busy("residues.unit_order_mod_p2"), "s"),
        "admissible.search_pair.self_s": (busy("admissible.search_pair"), "s"),
        "admissible.search_pair.primes_per_cert": (
            ratio(extra.get("admissible.search_pair.primes", 0),
                  extra.get("admissible.search_pair.certs", 0)), "primes/cert"),
        "admissible.check_conditions.calls": (count("admissible.check_conditions"), "count"),
        "admissible.check_conditions.self_s": (busy("admissible.check_conditions"), "s"),
        f"{oracle}.calls": (count(oracle), "count"),
        f"{oracle}.self_s": (busy(oracle), "s"),
        f"{oracle}.elements": (extra.get(f"{oracle}.elements", 0), "count"),
        f"{oracle}.elements_per_s": (
            ratio(extra.get(f"{oracle}.elements", 0), total_s.get(oracle, 0.0)), "1/s"),
        "admissible.find_prime_element.calls": (count("admissible.find_prime_element"), "count"),
        "admissible.find_prime_element.self_s": (busy("admissible.find_prime_element"), "s"),
        "admissible.find_prime_element.bound_exceeded": (
            extra.get("admissible.find_prime_element.bound_exceeded", 0), "count"),
        "certs.verify_certificate_json.self_s": (busy("certs.verify_certificate_json"), "s"),
        "certs.certificate_to_json.self_s": (busy("certs.certificate_to_json"), "s"),
        "cli.reproduce_row.calls": (count("cli.reproduce_row"), "count"),
        "cli.reproduce_row.self_s": (busy("cli.reproduce_row"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced(args, workload) -> tuple[Measurement, dict, dict]:
    """Per-layer metrics from traced passes, alternated with untraced passes
    for the tracing overhead; after a warm-up pass, at least one of each."""
    tracer = Tracer()
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    totals_path = os.path.join(OUT, f"totals-{os.getpid()}.json")
    if workload.name == "reproduce":
        workload.setup()
        setup_totals: dict = {}
    else:
        tracer.install()
        try:
            workload.setup()
        finally:
            tracer.uninstall()
        setup_totals = tracer.totals()

    # The first pass also fills the program's lazy caches; it is a warm-up
    # and is left out of the overhead.
    begin = time.perf_counter()
    untraced, m, warm = Measurement(), Measurement(), Measurement()
    run_passes(workload, 0, warm)
    passes: list[dict] = []
    while True:
        if len(untraced.walls) <= len(m.walls):
            run_passes(workload, 0, untraced)
        elif workload.name == "reproduce":
            workload.trace_paths = (totals_path, spans_path)
            try:
                run_passes(workload, 0, m)
            finally:
                workload.trace_paths = None
            if os.path.exists(totals_path):  # absent when the child failed
                with open(totals_path) as fh:
                    passes.append(json.load(fh))
                os.remove(totals_path)
        else:
            before = tracer.totals()
            tracer.install()
            try:
                run_passes(workload, 0, m, tracer)
            finally:
                tracer.uninstall()
            passes.append(diff_totals(tracer.totals(), before))
        out_of_time = (time.perf_counter() - begin >= args.seconds
                       or time.monotonic() >= PROCESS_START + HARD_LIMIT_S)
        if m.walls and out_of_time:
            break
    if workload.name != "reproduce":
        tracer.write_spans(spans_path)
    m.attempted += untraced.attempted + warm.attempted
    m.failed = min(m.attempted, m.failed + untraced.failed + warm.failed + workload.after())

    overhead = statistics.median(m.walls) - statistics.median(untraced.walls)
    metrics = layer_metrics(_combine(setup_totals, passes), overhead)
    details = {
        "untraced_pass_walls_s": untraced.walls,
        "traced_pass_walls_s": m.walls,
        "spans": os.path.relpath(spans_path, OUT),
    }
    return m, metrics, details


def environment(args, workload, m: Measurement) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git": git_hash(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": len(workload.ops),
        "passes": len(m.walls),
        "ops": m.attempted,
        "failed_ratio": m.failed / m.attempted,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="run the set-up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.setup()
        print("ready", flush=True)
        return 0

    os.makedirs(OUT, exist_ok=True)
    try:
        measure = traced if args.trace else end_to_end
        m, metrics, details = measure(args, workload)
    finally:
        workload.cleanup()
    env = environment(args, workload, m)
    env.update(details)
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    record = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"environment": env, "result": result}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
