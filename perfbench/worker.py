"""Run `lineage` commands in one process and report their timings.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC holds {"src": directory holding the celllineage package, "commands":
[argv, ...], "trace": bool}.  Each argv is passed to `celllineage.cli.main`
as `lineage` would pass it.  RESULT receives the time to import the program,
each command's wall time and exit code, this process's peak resident set
size, and, when traced, the spans, counters and oracle findings.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main(spec_path, result_path):
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    from celllineage import cli

    import_s = time.perf_counter() - start

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    commands = []
    for argv in spec["commands"]:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        commands.append({"s": time.perf_counter() - start, "rc": rc, "stdout": out.getvalue()})
        if rc != 0:
            break

    result = {
        "import_s": import_s,
        "commands": commands,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        problems = []
        for window, template, best in tracer.ncc_samples:
            problems += tracing.check_ncc_sample(window, template, best)
        for lump, n_seeds, segments in tracer.reseg_samples:
            problems += tracing.check_reseg_sample(lump, n_seeds, segments)
        result["trace"] = {
            "totals": tracing.span_totals(tracer.spans),
            "counters": dict(tracer.counters),
            "spans": tracer.spans,
            "oracle_checked": len(tracer.ncc_samples) + len(tracer.reseg_samples),
            "oracle_problems": problems,
        }
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0 if all(c["rc"] == 0 for c in commands) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
