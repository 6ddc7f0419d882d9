"""
Reference figures for single inputs, in raw and normalised seconds:

    python3 bench/figures.py

Each row is timed REPEATS times, on one CPU as in run.py, with the reference
measured just before and just after; the medians are printed.  README.md
quotes one such run.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import warnings

import reference
from run import CLI, ROOT, load_program, pin_to_one_cpu, reference_around

REPEATS = 3


def timed(fn) -> tuple[float, float]:
    raws, norms = [], []
    for _ in range(REPEATS):
        r0 = reference_around()
        t0 = time.perf_counter()
        fn()
        raw = time.perf_counter() - t0
        r1 = reference_around()
        raws.append(raw)
        norms.append(reference.normalise(raw, (r0 + r1) / 2))
    return statistics.median(raws), statistics.median(norms)


def main() -> None:
    lorenzlinks = load_program()
    warnings.simplefilter("ignore")
    pin_to_one_cpu()
    parse = lorenzlinks.parse_vector

    def burau(text):
        w = lorenzlinks.minimal_braid_word(lorenzlinks.normalize(parse(text)))
        return lambda: lorenzlinks.burau_alexander(
            w, max_strands=w.strands, max_letters=len(w))

    rows = [
        ("census report, in process (report_all)",
         lambda: lorenzlinks.report_all(lorenzlinks.load_census())),
        ("census report, CLI process",
         lambda: subprocess.run([sys.executable, "-c", CLI, "--json", "census", "report"],
                                cwd=ROOT, capture_output=True, check=True)),
    ]
    for text in ("7^40", "13^100", "17^200"):
        rows.append((f"is_torus {text}", lambda text=text: lorenzlinks.is_torus(parse(text))))
    for s in (250, 500, 1000, 2000):
        text = f"3^{s},7^{s}"
        rows.append((f"invariant_report {text} (p = {2 * s})",
                     lambda text=text: lorenzlinks.invariant_report(parse(text))))
    # Morton-family knots whose minimal words have the strands and letters
    # of the ROADMAP's Burau rows: t = 12/287, 19/600, 24/887.
    for text in ("2^12,12^25", "2^6,19^33", "2^36,24^37"):
        w = lorenzlinks.minimal_braid_word(lorenzlinks.normalize(parse(text)))
        rows.append((f"burau_alexander {text} (t = {w.strands}, {len(w)} letters)", burau(text)))

    print(f"| input | raw s | normalised s |\n|---|---|---|")
    for label, fn in rows:
        raw, norm = timed(fn)
        print(f"| {label} | {raw:.4f} | {norm:.4f} |", flush=True)


if __name__ == "__main__":
    main()
