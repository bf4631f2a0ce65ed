#!/usr/bin/env python3
"""Wall-clock benchmark of the logical-mobility simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the simulator is imported from ``src/``
and the workloads live in ``workloads.py``.  A run imports the
simulator, checks the workload's preconditions (outside all timing),
then repeats passes until ``--seconds`` is spent (at least three).  Each
pass builds its inputs and any persistent world from the seed (timed as
set-up), then runs the pass's units back to back (each unit timed).

Host time on a shared machine drifts with its neighbours' load: on a
2-vCPU cloud VM the same pass took from 1.05 s to 2.2 s across minutes,
and CPU time tracks wall time, so neither can be used raw.  Every host
time is therefore reported at reference speed: at each unit boundary
(at most every ``CALIBRATE_EVERY_S``) the harness times a fixed
pure-Python kernel that uses none of the simulator's code, and a unit's
seconds are scaled by ``REFERENCE_KERNEL_S`` over the mean of the two
kernel timings around it.  On an idle host the scale is about 1; a
change to the simulator moves the scaled figures exactly as it moves
the raw ones.  The raw medians are printed beside the metrics.

With ``--trace 0`` it reports the end-to-end metrics:

* ``run_s``: median seconds of one pass;
* ``setup_s``: median seconds of importing the simulator in a fresh
  interpreter plus the median set-up of a pass (inputs and the world
  that persists across units);
* ``unit_ms.p50``: median ms of one unit (a trial, an invocation, or a
  chaos job including its report; for ``matrix_pool`` a job as timed
  inside its worker);
* ``peak_rss_mb``: peak RSS of this process; for ``matrix_pool`` plus
  the pool size times the largest worker's peak.

With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of ``layers.py`` per traced pass, plus
``trace.overhead`` (median traced pass over median untraced pass).

Every unit's simulated outcome is digested.  A unit fails when it
raises, fails its own check, differs between passes, differs between
traced and untraced passes, or, at the default seed, differs from
``digests.json``.  Paper shapes are asserted on every seed.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench-out")
MIN_PASSES = 3
IMPORT_SAMPLES = 5
CALIBRATE_EVERY_S = 0.1
#: The kernel's best time on an idle core of the 2-vCPU VM the bounds were
#: set on.  Fixed: changing it rescales every time metric.
REFERENCE_KERNEL_S = 0.00105
KERNEL_STEPS = 1_300

END_TO_END = {"run_s": "s", "setup_s": "s", "unit_ms.p50": "ms", "peak_rss_mb": "MB"}


def _echo():
    total = 0
    while True:
        total += yield total


def calibrate() -> float:
    """Best of three timings of a fixed kernel shaped like the simulator's
    hot loop: a heap-ordered queue resuming generators, dict churn."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            started = perf_counter()
            heap, table = [], {}
            processes = [_echo() for _ in range(32)]
            for process in processes:
                next(process)
            for step in range(KERNEL_STEPS):
                heapq.heappush(heap, ((step * 7919) % 1009, step, step % 32))
                table[step] = str(step)
                if len(heap) > 64:
                    _, sequence, index = heapq.heappop(heap)
                    processes[index].send(sequence)
                    del table[sequence]
            best = min(best, perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return best


class Calibration:
    """Kernel timings at unit boundaries, turned into per-unit scales."""

    def __init__(self) -> None:
        self.samples = []  # (unit boundary index, kernel seconds)
        self._last = -float("inf")

    def boundary(self, index: int, last: bool = False) -> None:
        now = perf_counter()
        if index == 0 or last or now - self._last >= CALIBRATE_EVERY_S:
            self.samples.append((index, calibrate()))
            self._last = perf_counter()

    def scales(self, units: int):
        """``REFERENCE_KERNEL_S`` over the mean kernel time bracketing
        each unit (the last sample at or before it, the first after)."""
        scales = []
        for unit in range(units):
            before = [s for i, s in self.samples if i <= unit][-1]
            after = next(s for i, s in self.samples if i >= unit + 1)
            scales.append(2.0 * REFERENCE_KERNEL_S / (before + after))
        return scales


def import_simulator():
    """Import the workloads (and with them the simulator) from ``src``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: simulator source not found under {SRC}")
    sys.path.insert(0, SRC)
    import workloads
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return workloads


def import_seconds() -> list:
    """Host seconds ``(raw, scaled)`` of importing the workloads (and with
    them the simulator) in ``IMPORT_SAMPLES`` fresh interpreters, one after
    another; a single import swings by a third between runs."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; "
        "started = time.perf_counter(); import workloads; "
        "print(time.perf_counter() - started)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        before = calibrate()
        child = subprocess.run(
            [sys.executable, "-c", code, SRC, HERE],
            capture_output=True, text=True, check=True, timeout=60,
        )
        after = calibrate()
        raw = float(child.stdout.split()[-1])
        samples.append((raw, raw * 2.0 * REFERENCE_KERNEL_S / (before + after)))
    return samples


def peak_rss_mb(children: int) -> float:
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kilobytes += children * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kilobytes / 1024.0


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """Passes of one workload, their timings and their outcome checks."""

    def __init__(self, workload, seed: int, expected, digest) -> None:
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.digest = digest
        self.setup_s = []  # (raw, scaled)
        self.pass_s = []  # (raw, scaled)
        self.unit_s = []  # (raw, scaled)
        self.traced_pass_s = []  # (raw, scaled)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.digests = []

    def one_pass(self, tracer=None) -> None:
        """Set up and run one pass, then check its outcomes."""
        workload = self.workload
        calibration = Calibration()
        on_unit = calibration.boundary
        if tracer is not None:
            tracer.install()
            base = len(self.traced_pass_s) * 100_000

            def on_unit(index):
                tracer.log.unit_id = base + index
                calibration.boundary(index)

        try:
            started = perf_counter()
            state = workload.setup(workload.inputs(self.seed))
            set_up = perf_counter() - started
            if tracer is not None:
                tracer.log.active = True
            result = workload.run_pass(state, on_unit)
        finally:
            if tracer is not None:
                tracer.log.active = False
                tracer.remove()
        calibration.boundary(len(result.records), last=True)
        scales = calibration.scales(len(result.records))
        # Jobs timed inside pool workers share the pass's scale.
        unit_scales = scales[: len(result.unit_seconds)]
        raw_units = sum(result.unit_seconds)
        scaled_units = sum(u * s for u, s in zip(result.unit_seconds, unit_scales))
        pass_scale = scaled_units / raw_units if raw_units else scales[0]
        timing = (result.seconds, result.seconds * pass_scale)
        if tracer is None:
            self.pass_s.append(timing)
            self.setup_s.append((set_up, set_up * scales[0]))
            self.unit_s.extend(
                (u, u * s) for u, s in zip(result.unit_seconds, unit_scales)
            )
        else:
            self.traced_pass_s.append(timing)
        self.check(result)

    def check(self, result) -> None:
        """Count failed units and record problems for one pass."""
        units = result.unit_digests()
        summary = self.digest(result.summary)
        self.problems.extend(result.errors)
        bad = {index for index, unit in enumerate(units) if unit is None}
        reference = self.reference or self.expected
        if reference is not None:
            if len(units) != len(reference["units"]) or summary != reference["summary"]:
                bad.update(range(len(units)))
            else:
                bad.update(
                    index
                    for index, unit in enumerate(units)
                    if unit != reference["units"][index]
                )
        if bad:
            self.problems.append(
                f"{len(bad)} unit(s) raised or differ from the reference outcome"
            )
        elif self.reference is None:
            self.reference = {"units": units, "summary": summary}
        self.problems.extend(f"shape: {p}" for p in self.workload.shape_problems(result))
        self.attempted += len(units)
        self.failed += len(bad)
        self.digests.append(result.pass_digest())

    @staticmethod
    def raw(samples) -> float:
        return median([raw for raw, _ in samples])

    @staticmethod
    def scaled(samples) -> float:
        return median([scaled for _, scaled in samples])


def run(args) -> int:
    workloads = import_simulator()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"want one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        workload.precondition(workload.inputs(args.seed))
    except workloads.PreconditionError as error:
        print(f"PreconditionError: {workload.name}: {error}", file=sys.stderr)
        return 3
    expected = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(DIGESTS) as handle:
            expected = json.load(handle).get(workload.name)
        if expected is None:
            print(f"perfbench: no recorded digests for {workload.name}", file=sys.stderr)
            return 2
    bench = Run(workload, args.seed, expected, workloads.digest)

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
    started = perf_counter()
    while True:
        cycle = perf_counter()
        bench.one_pass()
        if tracer is not None:
            bench.one_pass(tracer)
        spent = perf_counter() - started
        enough = len(bench.pass_s) >= (1 if tracer else MIN_PASSES)
        if enough and spent + (perf_counter() - cycle) > args.seconds:
            break

    # Before the informational reference pass, which would add its own
    # memory to the peak.
    children = workloads.pool_workers() if workload.name == "matrix_pool" else 0
    peak_mb = peak_rss_mb(children)
    imports = import_seconds()
    print(f"workload {workload.name}  seed {args.seed}  passes {len(bench.pass_s)}"
          f"  units/pass {bench.attempted // max(1, len(bench.digests))}")
    print(f"pass digests: {sorted(set(bench.digests))}")
    extra = informational(workloads, workload, bench, args)
    if tracer is not None:
        metrics = layer_metrics(tracer, bench, extra)
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.log.write(os.path.join(SPANS_DIR, f"spans-{workload.name}.bin"))
        from layers import LAYER_METRICS as units
    else:
        metrics = {
            "run_s": bench.scaled(bench.pass_s),
            "setup_s": bench.scaled(imports) + bench.scaled(bench.setup_s),
            "unit_ms.p50": 1000.0 * bench.scaled(bench.unit_s),
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END
        print(f"raw host time: run_s {bench.raw(bench.pass_s):.6g} s, setup_s "
              f"{bench.raw(imports) + bench.raw(bench.setup_s):.6g} s, unit_ms.p50 "
              f"{1000.0 * bench.raw(bench.unit_s):.6g} ms")
    for problem in dict.fromkeys(bench.problems):
        print(f"problem: {problem}")
    print(f"error_rate = {bench.failed / max(1, bench.attempted):.6g}"
          f"  ({bench.failed}/{bench.attempted} units)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


def informational(workloads, workload, bench, args) -> dict:
    """Figures printed beside the metrics (not metrics themselves)."""
    extra = {}
    if workload.name == "paradigm_mix" and bench.unit_s:
        ordered = sorted(scaled for _, scaled in bench.unit_s)
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        beyond = sum(1 for value in ordered if value > p99)
        print(f"unit_ms.p99 = {1000.0 * p99:.6g} ms  ({len(ordered)} samples, "
              f"{beyond} beyond p99)")
    if workload.name in ("chaos_fleet", "matrix_pool") and bench.reference:
        # The matrix's effective speedup: the same jobs serially in one
        # process over the same jobs on the pool.  One reference pass of
        # the other side, outside all timing, in raw host seconds.
        other = workloads.WORKLOADS[
            "matrix_pool" if workload.name == "chaos_fleet" else "chaos_fleet"
        ]
        result = other.run_pass(other.setup(other.inputs(args.seed)))
        if result.unit_digests() != bench.reference["units"]:
            bench.problems.append(f"{other.name} outcomes differ from {workload.name}")
        mine = bench.raw(bench.pass_s)
        serial, pool = (
            (mine, result.seconds)
            if workload.name == "chaos_fleet"
            else (result.seconds, mine)
        )
        print(f"matrix effective speedup = chaos_fleet.run_s / matrix_pool.run_s = "
              f"{serial:.4g} / {pool:.4g} = {serial / pool:.3f} "
              f"({workloads.pool_workers()} workers)")
        if workload.name == "matrix_pool":
            extra["serial_unit_s"] = sum(result.unit_seconds)
    return extra


def layer_metrics(tracer, bench, extra) -> dict:
    """Per-layer figures per traced pass, plus the tracing overhead."""
    passes = len(bench.traced_pass_s)
    values = tracer.metrics()
    for name, value in values.items():
        if not name.endswith("_ratio"):
            values[name] = value / passes
    traced = bench.raw(bench.traced_pass_s)
    values["trace.overhead"] = bench.scaled(bench.traced_pass_s) / bench.scaled(bench.pass_s)
    if "serial_unit_s" in extra:
        from workloads import pool_workers

        pool_s = traced - tracer.log.inclusive("runner.merge_s") / passes
        values["runner.pool_s"] = pool_s
        values["runner.utilisation"] = extra["serial_unit_s"] / (pool_workers() * pool_s)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    finally:
        reap_children()


def reap_children() -> None:
    """Wait for every process the run started.  The run-matrix pool joins
    its workers, but a spawn pool also starts multiprocessing's resource
    tracker, which would outlive this process (as an orphan, or a zombie
    where nothing reaps orphans); stop it and wait for it here."""
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
