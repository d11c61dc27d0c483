"""Spans around the public functions of every `celllineage` module.

`install` wraps each public module-level function (and `Frame.normalized`)
from outside the program.  A function that another module imports by name,
such as `linker`'s `cells_from_labelmask`, is replaced there too, and is
recorded under the module that defines it.  Each call becomes one span
(name, start, end, parent), kept in memory until the worker writes them out.
A few hooks count work at the same boundaries and keep samples of calls for
the oracle checks, which run only after the traced command has finished.
"""

import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import Counter

import numpy as np

PACKAGE = "celllineage"

# Wrapped methods, by module: class name -> method names.
METHODS = {"imagecore": {"Frame": ("normalized",)}}

# Sampled ncc_best calls: call numbers 0, NCC_SAMPLE_EVERY, ... up to
# NCC_SAMPLE_MAX per process.
NCC_SAMPLE_EVERY = 50
NCC_SAMPLE_MAX = 3
NCC_TOL = 1e-9
_VAR_EPS = 1e-12  # the kernel contract: patches with no variance score 0


def layer_of(module_name):
    """'celllineage.kernels.ncc_numpy' -> 'kernels'."""
    return module_name.split(".")[1]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.ncc_samples = []  # (window, template, (row, col, score))
        self.reseg_samples = []  # (lump pixels, seed count, segments)
        self._stack = []

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            failed = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                failed = exc
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if hook is not None:
                    hook(tracer, args, kwargs, None if failed else result, failed)
            return result

        return traced


def _modules():
    pkg = importlib.import_module(PACKAGE)
    names = [m.name for m in pkgutil.walk_packages(pkg.__path__, PACKAGE + ".")]
    return [importlib.import_module(n) for n in [PACKAGE] + sorted(names)]


def install(tracer):
    """Wrap the package's public functions in place, recording into tracer."""
    modules = _modules()
    wrapped = {}  # original function -> wrapper
    for mod in modules:
        if mod.__name__ == PACKAGE:
            continue
        for attr, fn in list(vars(mod).items()):
            if (
                inspect.isfunction(fn)
                and not attr.startswith("_")
                and fn.__module__ == mod.__name__
                and fn not in wrapped
            ):
                wrapped[fn] = tracer.wrap("%s.%s" % (layer_of(mod.__name__), attr), fn)
        for cls_name, methods in METHODS.get(layer_of(mod.__name__), {}).items():
            cls = getattr(mod, cls_name, None)
            if cls is None or cls.__module__ != mod.__name__:
                continue
            for meth in methods:
                fn = vars(cls)[meth]
                qual = "%s.%s.%s" % (layer_of(mod.__name__), cls_name, meth)
                setattr(cls, meth, tracer.wrap(qual, fn))
    # re-point every name bound to a wrapped function, in every module
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])


# ---- hooks: counts and oracle samples, taken after the span has closed ----


def _hook_ncc_best(tracer, args, kwargs, result, failed):
    if failed is not None:
        return
    window, template = args[0], args[1]
    wh, ww = np.shape(window)
    th, tw = np.shape(template)
    tracer.counters["kernels.ncc_placements"] += (wh - th + 1) * (ww - tw + 1)
    n = tracer.counters["kernels.ncc_best_seen"]
    tracer.counters["kernels.ncc_best_seen"] += 1
    if n % NCC_SAMPLE_EVERY == 0 and len(tracer.ncc_samples) < NCC_SAMPLE_MAX:
        tracer.ncc_samples.append((np.array(window, dtype=np.float64), np.array(template, dtype=np.float64), result))


def _hook_predict(tracer, args, kwargs, result, failed):
    if failed is None and result.valid:
        tracer.counters["tracker.valid"] += 1


def _hook_cells_from_labelmask(tracer, args, kwargs, result, failed):
    if failed is None:
        tracer.counters["imagecore.cells"] += len(result)


def _hook_build_lattice(tracer, args, kwargs, result, failed):
    if failed is None:
        tracer.counters["rwalker.lattice_nodes"] += len(result.pixels)


def _hook_reseg_cell(tracer, args, kwargs, result, failed):
    if failed is not None:
        if type(failed).__name__ == "ResegFailure":
            tracer.counters["rwalker.reseg_failures"] += 1
        return
    lump, prev_centroids = args[1], args[2]
    tracer.reseg_samples.append((lump.pixels, len(prev_centroids), [c.pixels for c in result]))


def _hook_detect_collisions(tracer, args, kwargs, result, failed):
    # first detection per frame step; re-detections inside the repair loop
    # have resolve_collisions as their parent
    if failed is None and tracer.parent_name() == "linker.run_linker":
        tracer.counters["linker.lumps_flagged"] += len(result)


def _hook_resolve_collisions(tracer, args, kwargs, result, failed):
    if failed is None:
        report = result[1]
        tracer.counters["linker.splits"] += len(report.splits)
        tracer.counters["linker.unresolved"] += len(report.unresolved)


def _hook_simulate(tracer, args, kwargs, result, failed):
    if failed is None:
        tracer.counters["simulator.frames"] += len(result[0])


def _hook_pgm_read(tracer, args, kwargs, result, failed):
    if failed is None:
        tracer.counters["pgm.bytes_read"] += os.path.getsize(args[0])


def _hook_pgm_write(tracer, args, kwargs, result, failed):
    if failed is None:
        tracer.counters["pgm.bytes_written"] += os.path.getsize(args[0])


HOOKS = {
    "kernels.ncc_best": _hook_ncc_best,
    "tracker.predict": _hook_predict,
    "imagecore.cells_from_labelmask": _hook_cells_from_labelmask,
    "rwalker.build_lattice": _hook_build_lattice,
    "rwalker.reseg_cell": _hook_reseg_cell,
    "linker.detect_collisions": _hook_detect_collisions,
    "linker.resolve_collisions": _hook_resolve_collisions,
    "simulator.simulate": _hook_simulate,
    "pgm.read_pgm8": _hook_pgm_read,
    "pgm.read_pgm16": _hook_pgm_read,
    "pgm.write_pgm8": _hook_pgm_write,
    "pgm.write_pgm16": _hook_pgm_write,
}


# ---- oracles ----


def ncc_direct(window, template):
    """NCC of the template at every placement, one placement at a time."""
    th, tw = template.shape
    t0 = template - template.mean()
    t_ss = float(np.sum(t0 * t0))
    out = np.zeros((window.shape[0] - th + 1, window.shape[1] - tw + 1))
    if t_ss <= _VAR_EPS:
        return out
    for r in range(out.shape[0]):
        for c in range(out.shape[1]):
            patch = window[r : r + th, c : c + tw]
            p0 = patch - patch.mean()
            p_ss = float(np.sum(p0 * p0))
            if p_ss > _VAR_EPS:
                out[r, c] = min(1.0, max(-1.0, float(np.sum(p0 * t0)) / np.sqrt(p_ss * t_ss)))
    return out


def check_ncc_sample(window, template, result):
    """Problems with one ncc_best result: must be the row-major-first maximum."""
    r, c, score = result
    scores = ncc_direct(window, template)
    best = scores.max()
    first = int(np.flatnonzero(scores >= best - NCC_TOL)[0])
    problems = []
    if (r, c) != divmod(first, scores.shape[1]):
        problems.append("ncc_best chose %s, oracle's first maximum is %s" % ((r, c), divmod(first, scores.shape[1])))
    if abs(score - scores[r, c]) > NCC_TOL:
        problems.append("ncc_best score %.12f, oracle %.12f at %s" % (score, scores[r, c], (r, c)))
    return problems


def check_reseg_sample(lump, n_seeds, segments):
    """Problems with one reseg_cell result: segments must partition the lump."""
    problems = []
    if len(segments) != n_seeds:
        problems.append("reseg_cell returned %d segments for %d seeds" % (len(segments), n_seeds))
    union = set()
    for seg in segments:
        if union & seg:
            problems.append("reseg_cell segments overlap")
        union |= seg
    if union != set(lump):
        problems.append("reseg_cell segments cover %d pixels, lump has %d" % (len(union), len(lump)))
    return problems


# ---- per-module metrics from spans ----


def span_totals(spans):
    """name -> [calls, inclusive seconds, self seconds] for one process's spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for (name, start, end, _), inner in zip(spans, child):
        t = totals.setdefault(name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - inner
    return totals


# (metric, unit, how): how is ("calls"|"incl"|"self", span names) or ("count", counter)
LAYER_METRICS = [
    ("kernels.ncc_calls", "count", ("calls", ["kernels.ncc_best"])),
    ("kernels.ncc_s", "s", ("incl", ["kernels.ncc_best"])),
    ("kernels.ncc_placements", "count", ("count", "kernels.ncc_placements")),
    ("tracker.predict_calls", "count", ("calls", ["tracker.predict"])),
    ("tracker.predict_self_s", "s", ("self", ["tracker.predict"])),
    ("imagecore.threshold_s", "s", ("incl", ["imagecore.threshold_segment"])),
    ("imagecore.components_s", "s", ("incl", ["imagecore.connected_components"])),
    ("imagecore.cells_from_labelmask_s", "s", ("incl", ["imagecore.cells_from_labelmask"])),
    ("imagecore.mask_from_cells_s", "s", ("incl", ["imagecore.mask_from_cells"])),
    ("imagecore.normalized_s", "s", ("incl", ["imagecore.Frame.normalized"])),
    ("imagecore.cells", "count", ("count", "imagecore.cells")),
    ("rwalker.reseg_calls", "count", ("calls", ["rwalker.reseg_cell"])),
    ("rwalker.reseg_failures", "count", ("count", "rwalker.reseg_failures")),
    ("rwalker.lattice_nodes", "count", ("count", "rwalker.lattice_nodes")),
    ("rwalker.build_lattice_s", "s", ("incl", ["rwalker.build_lattice"])),
    ("rwalker.solve_s", "s", ("incl", ["rwalker.solve_probabilities"])),
    ("rwalker.reseg_self_s", "s", ("self", ["rwalker.reseg_cell"])),
    ("linker.lumps_flagged", "count", ("count", "linker.lumps_flagged")),
    ("linker.splits", "count", ("count", "linker.splits")),
    ("linker.unresolved", "count", ("count", "linker.unresolved")),
    ("linker.resolve_self_s", "s", ("self", ["linker.resolve_collisions"])),
    ("linker.match_forward_s", "s", ("incl", ["linker.match_forward"])),
    ("linker.update_lineage_s", "s", ("incl", ["linker.update_lineage"])),
    ("linker.run_linker_self_s", "s", ("self", ["linker.run_linker"])),
    ("simulator.simulate_s", "s", ("incl", ["simulator.simulate"])),
    ("simulator.frames", "count", ("count", "simulator.frames")),
    ("pgm.read_s", "s", ("incl", ["pgm.read_pgm8", "pgm.read_pgm16"])),
    ("pgm.write_s", "s", ("incl", ["pgm.write_pgm8", "pgm.write_pgm16"])),
    ("pgm.bytes_read", "B", ("count", "pgm.bytes_read")),
    ("pgm.bytes_written", "B", ("count", "pgm.bytes_written")),
    ("metrics.seg_s", "s", ("incl", ["metrics.seg_score"])),
    ("metrics.tra_s", "s", ("incl", ["metrics.tra_score"])),
    ("trackfile.s", "s", ("incl", ["trackfile.read_track_file", "trackfile.write_track_file"])),
    ("cli.track_self_s", "s", ("self", ["cli.cmd_track"])),
    ("cli.evaluate_self_s", "s", ("self", ["cli.cmd_evaluate"])),
]

_COLUMN = {"calls": 0, "incl": 1, "self": 2}


def layer_metrics(totals, counters):
    """Per-module metrics from summed span totals and counters.

    Adds the two ratios: kernels.ns_per_placement and tracker.valid_ratio.
    """
    out = {}
    for metric, unit, (how, what) in LAYER_METRICS:
        if how == "count":
            value = counters.get(what, 0)
        else:
            value = sum(totals.get(name, (0, 0.0, 0.0))[_COLUMN[how]] for name in what)
        out[metric] = (value, unit)
    placements = out["kernels.ncc_placements"][0]
    out["kernels.ns_per_placement"] = (1e9 * out["kernels.ncc_s"][0] / placements if placements else 0.0, "ns")
    calls = out["tracker.predict_calls"][0]
    out["tracker.valid_ratio"] = (counters.get("tracker.valid", 0) / calls if calls else 0.0, "ratio")
    return out
