"""Runs one workload's operations in a fresh process: one client, closed loop.

Usage: python3 worker.py WORKDIR

Reads WORKDIR/manifest.json (written by run.py), runs from WORKDIR, and
writes WORKDIR/first.json (every operation's output from the first,
untimed pass) and WORKDIR/result.json (timings, spans, counters).
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

import reference
import tropcyl.cli
from tropcyl import extension, lattice, serialize, spines
from tracing import Tracer


def _load_lib_inputs(ops):
    """Parse the inputs of library-call operations before timing starts."""
    dp = extension.del_pezzo_base()
    inputs = {}
    for i, op in enumerate(ops):
        if op["kind"] == "lib" and op["call"] == "cylinder_chain":
            with open(op["args"]["spine"], encoding="utf-8") as fh:
                ext = serialize.spine_from_json(dp, json.load(fh))
            l, m, n, b = op["args"]["family"]
            inputs[i] = (dp, ext, l, m, n, Fraction(b))
    return inputs


def _cylinder_chain(base, ext, l, m, n, b):
    cyl = extension.cylinder_in_b(base, ext)
    lifted = extension.lift_to_tilde(base, ext)
    equal = spines.canonical_image(cyl.path_part()) == \
        extension.trace_path_image(l, m, n, b)
    return {"equal": equal, "legs": [list(leg) for leg in cyl.legs],
            "heights": [[v, str(h)] for v, h in lifted.heights]}


def _peak_rss_kb():
    """Peak resident set size of this process image, in KiB.

    VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
    parent that forked the worker across exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Runner:
    """Runs operations; stdout and stderr of each are captured."""

    def __init__(self, ops, tracer):
        self.ops = ops
        self.tracer = tracer
        self.lib_inputs = _load_lib_inputs(ops)

    def run(self, i):
        """(exit code or None if it raised, stdout, stderr) of op i."""
        op = self.ops[i]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op["kind"] == "cli":
                    code = self.tracer.span(f"cli.run.{op['argv'][0]}",
                                            tropcyl.cli.run, op["argv"])
                elif op["call"] == "toric_sweep":
                    a = op["args"]
                    result = lattice.verify_toric_criterion(a["l"], a["lo"],
                                                            a["hi"])
                    print(json.dumps(list(result)))
                    code = 0
                else:
                    result = _cylinder_chain(*self.lib_inputs[i])
                    print(json.dumps(result, sort_keys=True))
                    code = 0
        except Exception:
            return (None, out.getvalue(), err.getvalue() + traceback.format_exc())
        return (code, out.getvalue(), err.getvalue())


def main(workdir):
    os.chdir(workdir)
    with open("manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    ops, seconds, traced = manifest["ops"], manifest["seconds"], manifest["trace"]
    tracer = Tracer()
    runner = Runner(ops, tracer)
    n = len(ops)

    # First pass: untimed; warms caches and gives the outputs to check.
    first = [runner.run(i) for i in range(n)]
    with open("first.json", "w", encoding="utf-8") as fh:
        json.dump(first, fh)

    executions = [0] * n
    mismatches = [0] * n
    # Per complete pass: (traced, op latencies in ns, reference kernel times
    # in ns: one before the first operation and one after each).
    passes = []

    def enough():
        kinds = {p[0] for p in passes}
        return False in kinds and (not traced or True in kinds)

    def timed_reference():
        t0 = time.perf_counter_ns()
        reference.kernel()
        return time.perf_counter_ns() - t0

    # Closed loop until the deadline; a traced run alternates untraced and
    # traced passes.  A pass cut by the deadline counts as attempted only.
    deadline = time.perf_counter() + seconds
    while not (enough() and time.perf_counter() > deadline):
        trace_this = bool(traced) and len(passes) % 2 == 1
        if trace_this:
            tracer.install()
        latencies = []
        refs = [timed_reference()]
        for i in range(n):
            tracer.current = (len(passes), i)
            t0 = time.perf_counter_ns()
            outcome = runner.run(i)
            latencies.append(time.perf_counter_ns() - t0)
            refs.append(timed_reference())
            executions[i] += 1
            if outcome != first[i]:
                mismatches[i] += 1
            if enough() and time.perf_counter() > deadline:
                break
        if trace_this:
            tracer.uninstall()
        if len(latencies) == n:
            passes.append((trace_this, latencies, refs))

    result = {
        "backend": getattr(tropcyl, "BACKEND", None),
        "peak_rss_kb": _peak_rss_kb(),
        "executions": executions,
        "mismatches": mismatches,
        "passes": passes,
        "spans": [s for s in tracer.spans if s[4] < len(passes)],
    }
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
