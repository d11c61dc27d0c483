"""Time the NCC kernel and check it against a per-placement reference.

Runs the full-map search for window/template sizes typical of the tracker
(150x150 windows for the canonical scenario, 64x64 for the benchmark
workloads, padded cell templates) and prints the time per call, the time
per placement, and the largest difference from a reference that centres
each candidate patch on its own mean.

Usage: PYTHONPATH=src python benchmarks/bench_ncc.py [repeats]
"""

import sys
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from celllineage import kernels

CASES = [
    ("small cell", (150, 150), (18, 18)),
    ("large cell", (150, 150), (30, 30)),
    ("clipped window", (90, 150), (24, 24)),
    ("tiny template", (150, 150), (6, 6)),
    ("64 px window", (64, 64), (26, 26)),
]


def reference_ncc(window, template):
    """NCC from each placement's own zero-mean patch, one row of placements at a time."""
    th, tw = template.shape
    t0 = template - template.mean()
    t_ss = float(np.sum(t0 * t0))
    out = np.zeros((window.shape[0] - th + 1, window.shape[1] - tw + 1))
    for r in range(out.shape[0]):
        patches = sliding_window_view(window[r : r + th], (th, tw))[0]
        p0 = patches - patches.mean(axis=(1, 2), keepdims=True)
        denom = np.sqrt(np.sum(p0 * p0, axis=(1, 2)) * t_ss)
        cross = np.sum(p0 * t0, axis=(1, 2))
        out[r] = np.where(denom <= 1e-12, 0.0, cross / np.where(denom <= 1e-12, 1.0, denom))
    return out


def time_kernel(window, template, repeats):
    kernels.ncc_map(window, template)  # warm-up
    start = time.perf_counter()
    for _ in range(repeats):
        out = kernels.ncc_map(window, template)
    return (time.perf_counter() - start) / repeats, out


def main():
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    rng = np.random.default_rng(0)
    header = "%-16s %10s %9s %10s %14s %12s" % (
        "case", "window", "template", "ms/call", "ns/placement", "max |diff|"
    )
    print(header)
    print("-" * len(header))
    for name, wshape, tshape in CASES:
        window = rng.random(wshape)
        template = rng.random(tshape)
        seconds, out = time_kernel(window, template, repeats)
        diff = float(np.abs(out - reference_ncc(window, template)).max())
        print(
            "%-16s %10s %9s %10.3f %14.1f %12.2e"
            % (name, "%dx%d" % wshape, "%dx%d" % tshape, 1e3 * seconds, 1e9 * seconds / out.size, diff)
        )


if __name__ == "__main__":
    main()
