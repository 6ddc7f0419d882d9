"""
Benchmark of lorenzlinks: one workload, one seed, one process and thread, a
closed loop with one client.

    python3 bench/run.py --workload census --seed 1 --seconds 15 --trace 0

It times each item from outside the program through the public functions of
lorenzlinks (src/ of the checkout it runs in), checks every output against a
computation made apart from the program, and prints as its last line one
JSON object: correct, attempted, failed and the metrics.  --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Every time is normalised to reference speed (see reference.py); the line
before the result gives the raw figures.  README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import oracle
import reference
import trace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Fresh interpreters started per run, for setup_s and for cli_s each.
PROBES = 13
# Timed items per run at least, so that ten lie beyond the 90th percentile.
MIN_ITEMS = 100

CLI = ("import sys; sys.path.insert(0, 'src'); from lorenzlinks.cli import main; "
       "sys.exit(main(sys.argv[1:]))")


def pin_to_one_cpu() -> None:
    """
    Keep this process, and the interpreters it starts, on the CPU it runs
    on now, so that the reference and the work it normalises share a CPU.
    Unpinned and with one reference run on either side, the invariants
    workload's cli_s spread 22% (quartile distance over median) over five
    runs; pinned and with the median of five on either side, 5%.
    """
    try:
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass  # not Linux: run unpinned


def reference_around() -> float:
    """Median of a few reference runs, for timings taken around a process."""
    return statistics.median(reference.measure() for _ in range(5))


def load_program():
    """Import lorenzlinks from the checkout's src/, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lorenzlinks
        import lorenzlinks.cli  # noqa: F401  (not imported by the package)
    except ImportError as exc:
        print(f"error: cannot import lorenzlinks from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    return lorenzlinks


def fitted_exponent(sizes: list[float], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


class Run:
    def __init__(self, workload: str, seed: int, lorenzlinks):
        self.workload, self.seed, self.lorenzlinks = workload, seed, lorenzlinks
        self.items, self.cli_argv, problems = workloads.build(workload, seed, ROOT, lorenzlinks)
        self.expected = [workloads.expected(item) for item in self.items]
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        for problem in problems:
            self.note(problem)

    def timed_pass(self, tracer=None) -> tuple[list[float], list[float]]:
        """
        One pass over the items, each timed alone.  The reference runs before
        the first item and after every item, so each item is normalised by
        the mean of the two reference times around it.  Returns the raw and
        the normalised seconds of every item.
        """
        run_item, package = workloads.run_item, self.lorenzlinks
        refs = [reference.measure()]
        raw, outs = [], []
        for item in self.items:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = run_item(item, package)
                else:
                    out = tracer.call_item(run_item, item, package)
            except Exception as exc:  # counted as failed; the pass goes on
                out = exc
            raw.append(time.perf_counter() - t0)
            refs.append(reference.measure())
            outs.append(out)
        self.check(outs)
        norm = [reference.normalise(s, (refs[i] + refs[i + 1]) / 2) for i, s in enumerate(raw)]
        return raw, norm

    def check(self, outs: list) -> None:
        for item, exp, out in zip(self.items, self.expected, outs):
            self.attempted += 1
            if isinstance(out, Exception):
                # a failed item is counted, not checked: correct speaks of the rest
                self.failed += 1
                if self.failed <= 20:
                    print(f"failed: {item.text}: {type(out).__name__}: {out}", file=sys.stderr)
            else:
                for problem in workloads.check(item, workloads.plain(item, out), exp):
                    self.note(problem)

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            print(f"check failed: {problem}", file=sys.stderr)
        self.problems.append(problem)

    def check_cli(self, stdout: str) -> None:
        for problem in workloads.check_cli(self.workload, self.cli_argv, stdout, ROOT):
            self.note(f"CLI: {problem}")

    def probe_setup(self) -> tuple[float, float]:
        """Raw and normalised seconds from starting a fresh interpreter to
        its inputs being built."""
        r0 = reference_around()
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(BENCH / "run.py"), "--workload", self.workload,
                 "--seed", str(self.seed), "--setup-probe"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        r1 = reference_around()
        if line.strip() != "ready" or proc.returncode:
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        return elapsed, reference.normalise(elapsed, (r0 + r1) / 2)

    def probe_cli(self) -> tuple[float, float]:
        """Raw and normalised seconds of the workload's CLI command in a
        fresh interpreter, through lorenzlinks.cli.main."""
        r0 = reference_around()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI, *self.cli_argv],
                              cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        r1 = reference_around()
        if proc.returncode:
            self.note(f"CLI exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        self.check_cli(proc.stdout)
        return elapsed, reference.normalise(elapsed, (r0 + r1) / 2)

    def cli_in_process(self) -> None:
        """The CLI command inside this process, so that a tracer sees it."""
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.lorenzlinks.cli.main(list(self.cli_argv))
        if code:
            self.note(f"CLI returned {code}")
        self.check_cli(buffer.getvalue())


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(run: Run, seconds: float) -> tuple[dict, str]:
    """
    Passes for `seconds`, not counting the probes, which are spread evenly
    over the run so that they meet the machine in all its states.
    """
    raw_items, norm_items, setups, clis = [], [], [], []
    passing = 0.0
    while passing < seconds or len(norm_items) < MIN_ITEMS:
        t0 = time.perf_counter()
        raw, norm = run.timed_pass()
        passing += time.perf_counter() - t0
        raw_items += raw
        norm_items += norm
        while len(clis) < min(PROBES, PROBES * passing / seconds):
            setups.append(run.probe_setup())
            clis.append(run.probe_cli())
    while len(clis) < PROBES:
        setups.append(run.probe_setup())
        clis.append(run.probe_cli())
    metrics = {
        "setup_s": (statistics.median(n for _, n in setups), "s"),
        "items_per_s": (len(norm_items) / sum(norm_items), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(norm_items), "ms"),
        "latency_p90_ms": (1000 * p90(norm_items), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cli_s": (statistics.median(n for _, n in clis), "s"),
    }
    raw = (f"raw, not normalised: setup_s={statistics.median(r for r, _ in setups):.4f}"
           f" items_per_s={len(raw_items) / sum(raw_items):.3f}"
           f" latency_p50_ms={1000 * statistics.median(raw_items):.4f}"
           f" latency_p90_ms={1000 * p90(raw_items):.4f}"
           f" cli_s={statistics.median(r for r, _ in clis):.4f}")
    return metrics, raw


def per_layer(run: Run, seconds: float) -> tuple[dict, str]:
    """
    Untraced and traced passes alternate.  A traced pass runs the items and
    then the workload's CLI command in process, each call of a traced
    function kept as a span.
    """
    tracer = trace.Tracer(run.lorenzlinks)
    untraced: list[list[float]] = []
    traced_norm: list[float] = []
    per_pass = []  # (calls, self ns, constructions, slides, reference factor)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not per_pass:
        untraced.append(run.timed_pass()[1])
        first, constructions, slides = len(tracer.names), tracer.constructions, tracer.slides
        tracer.install()
        try:
            raw, norm = run.timed_pass(tracer)
            run.cli_in_process()
        finally:
            tracer.uninstall()
        traced_norm += norm
        # The pass's own normalisation, applied to its self times.
        factor = statistics.median(n / r for n, r in zip(norm, raw))
        calls, own = tracer.self_times(first, len(tracer.names))
        per_pass.append((calls, own, tracer.constructions - constructions,
                         tracer.slides - slides, factor))

    metrics: dict[str, tuple[float, str]] = {}
    for index, name in enumerate(trace.SPAN_NAMES[:trace.ITEM]):
        counts = {p[0][index] for p in per_pass}
        if len(counts) > 1:
            run.note(f"{name} calls differ between passes: {sorted(counts)}")
        metrics[f"{name}.calls"] = (per_pass[0][0][index], "count")
        self_ms = statistics.mean(p[1][index] * p[4] for p in per_pass) / 1e6
        metrics[f"{name}.self_ms"] = (self_ms, "ms")
    metrics["braid.Permutation.constructions"] = (per_pass[0][2], "count")
    slide_calls = metrics["garside.left_slide.calls"][0]
    metrics["garside.left_slide.moved_ratio"] = (
        per_pass[0][3] / slide_calls if slide_calls else 0.0, "ratio")

    rungs = {"length": 0, "q_lt_t": 0, "garside": 0}
    for item in run.items:
        if item.kind in ("report", "torus"):
            rungs[oracle.torus_rung(oracle.normalized(oracle.parse(item.text)))] += 1
    for rung, count in rungs.items():
        metrics[f"torus.rung.{rung}"] = (count, "count")

    # Scaling: per-item median of the untraced passes against item size.
    medians = [statistics.median(times) for times in zip(*untraced)]
    for metric, kind in (("invariants.invariant_report.exponent", "invariants"),
                         ("torus.is_torus.exponent", "torus"),
                         ("invariants.burau_alexander.exponent", "burau")):
        pairs = [(item.size, t) for item, t in zip(run.items, medians)
                 if item.kind == kind and item.size]
        exponent = fitted_exponent(*zip(*pairs)) if len(pairs) >= 2 else 0.0
        metrics[metric] = (exponent, "1")

    untraced_all = [t for times in untraced for t in times]
    metrics["trace.overhead_ratio"] = (
        (len(traced_norm) / sum(traced_norm)) / (len(untraced_all) / sum(untraced_all)), "ratio")
    path = OUT / f"trace-{run.workload}-seed{run.seed}.tsv.gz"
    tracer.write(path)
    return metrics, f"spans: {len(tracer.names)} written to {path.relative_to(ROOT)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    lorenzlinks = load_program()
    warnings.simplefilter("ignore")  # parse_vector warns on the out-of-order census row
    if args.setup_probe:
        workloads.build(args.workload, args.seed, ROOT, lorenzlinks)
        print("ready", flush=True)
        return 0

    pin_to_one_cpu()
    run = Run(args.workload, args.seed, lorenzlinks)
    measure = per_layer if args.trace else end_to_end
    metrics, note = measure(run, args.seconds)
    print(note)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
