"""Benchmark of tropcyl: closed-loop workloads over the CLI and library paths.

Usage (from the root of a checkout):

    python3 perfbench/run.py [--workload base|extend|count|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in a fresh worker process with one client in a closed
loop: an operation is one `tropcyl` subcommand run in-process through
`tropcyl.cli.run(argv)` on generated input files, or one named library
call.  Inputs are generated from the seed before timing starts.  Every
operation's output is checked (see check.py).

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
prints the per-layer metrics of a separate traced run.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import reference
from gen import WORKLOADS, generate
from tracing import PER_LAYER, SIZED, layer_metrics

# name, unit, direction
END_TO_END = (
    ("ops_per_s", "op/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# Fresh interpreters that import the command line, for setup_s; each then
# times the reference kernel, to scale its import time to nominal speed.
SETUP_PROBES = 24
PROBE = ("import time; t = time.perf_counter(); import tropcyl.cli; "
         "t = time.perf_counter() - t; import reference; "
         "print(t, reference.mean_ns(8))")

# Per workload, the calls that must not happen there: each workload keeps
# its work inside its own layers.
ISOLATION = {
    "base": ("extension.extend.calls", "wallcross.count.calls"),
    "extend": ("wallcross.count.calls",),
    "count": ("lattice.is_positive.calls", "extension.extend.calls"),
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _environment():
    digest = hashlib.sha256()
    for path in sorted((SRC / "tropcyl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
    # Imports use the bytecode cache, as for an installed package; the
    # first probe in a checkout writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _setup_samples(count):
    """Import times of tropcyl.cli in fresh interpreters, at nominal speed."""
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", PROBE], env=_child_env(),
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        import_s, ref_ns = map(float, out.stdout.split())
        samples.append(import_s * reference.NOMINAL_NS / ref_ns)
    return samples


def _nominal(pass_, i):
    """Factor that brings operation i's time in a pass to nominal speed:
    the kernel's nominal time over the mean of the two kernel runs around
    the operation (see reference.py)."""
    refs = pass_[2]
    return 2 * reference.NOMINAL_NS / (refs[i] + refs[i + 1])


def _run_worker(workdir, seconds):
    log = workdir / "worker.log"
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"),
             str(workdir)], env=_child_env(), cwd=workdir,
            stdout=fh, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=2 * seconds + 60)
        except subprocess.TimeoutExpired as exc:
            raise RuntimeError("worker timed out") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise RuntimeError("worker failed:\n" + log.read_text()[-2000:])
    with open(workdir / "first.json", encoding="utf-8") as fh:
        first = json.load(fh)
    with open(workdir / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    return first, result


def run_workload(workload, seed, seconds, trace):
    """Generate, run, check and measure one workload; returns a dict."""
    from check import check

    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops, files = generate(workload, seed)
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        manifest = {"ops": ops, "seconds": seconds, "trace": trace}
        (workdir / "manifest.json").write_text(json.dumps(manifest),
                                               encoding="utf-8")
        probes = 0 if trace else SETUP_PROBES // 2
        setup = _setup_samples(probes)
        first, result = _run_worker(workdir, seconds)
        setup += _setup_samples(probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    problems = {}
    for i, op in enumerate(ops):
        try:
            reason = check(op, first[i], files)
        except Exception as exc:  # a malformed report is a wrong output
            reason = f"malformed output: {type(exc).__name__}: {exc}"
        if reason is not None:
            problems[i] = reason
    executions, mismatches = result["executions"], result["mismatches"]
    attempted = sum(executions)
    failed = sum(executions[i] if i in problems else mismatches[i]
                 for i in range(len(ops)))

    passes = result["passes"]
    timed = [p for p in passes if not p[0]]
    out = {"workload": workload, "ops": ops, "problems": problems,
           "attempted": attempted, "failed": failed,
           "backend": result["backend"], "passes": len(timed),
           "ops_per_pass": len(ops)}
    if trace:
        traced = [p for p in passes if p[0]]

        def busy(group):  # op time over reference time
            return sum(sum(p[1]) for p in group) / sum(sum(p[2]) for p in group)

        report_bytes = sum(len(first[i][1].encode()) for i, op in enumerate(ops)
                           if op["kind"] == "cli")
        scale = {(k, i): _nominal(p, i) for k, p in enumerate(passes) if p[0]
                 for i in range(len(ops))}
        out["metrics"] = layer_metrics(result["spans"], [op["tag"] for op in ops],
                                       scale, report_bytes,
                                       busy(traced) / busy(timed) - 1)
        out["units"] = {m["name"]: m["unit"] for m in PER_LAYER}
        return out
    # Each latency is scaled to nominal machine speed by the reference
    # kernel timed just before and just after it (see reference.py).  An
    # operation's time is then its median over the timed passes, which
    # keeps second-scale speed noise out; quantiles and throughput are
    # taken over the operations of one pass.
    def per_op(scaled):
        return sorted(statistics.median(
            p[1][i] * (_nominal(p, i) if scaled else 1) for p in timed) / 1e6
            for i in range(len(ops)))

    def e2e(times):
        deciles = statistics.quantiles(times, n=10, method="inclusive")
        return {"ops_per_s": len(times) / (sum(times) / 1e3),
                "latency_p50_ms": deciles[4], "latency_p90_ms": deciles[8]}

    refs = [ns for p in timed for ns in p[2]]
    out["samples"] = len(ops) * len(timed)
    out["raw"] = dict(e2e(per_op(False)),
                      reference_ms=statistics.mean(refs) / 1e6)
    out["metrics"] = dict(e2e(per_op(True)),
                          peak_rss_mb=result["peak_rss_kb"] / 1024,
                          setup_s=statistics.median(setup))
    out["units"] = {name: unit for name, unit, _ in END_TO_END}
    return out


def _print_report(res, trace):
    w = res["workload"]
    print(f"== {w}: {res['ops_per_pass']} ops per pass, {res['passes']} "
          f"timed passes, backend {res['backend']}")
    for i, reason in sorted(res["problems"].items()):
        print(f"   WRONG op {i} {res['ops'][i].get('argv') or res['ops'][i]['call']}: "
              f"{reason}")
    units = res["units"]
    for name, value in res["metrics"].items():
        print(f"   {name:<44} {value:>14.6g} {units[name]}")
    fail_frac = res["failed"] / res["attempted"]
    print(f"   {'fail_frac':<44} {fail_frac:>14.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    if not trace:
        raw = res["raw"]
        print(f"   {res['ops_per_pass']} operations x {res['passes']} passes "
              f"= {res['samples']} samples; times "
              f"scaled to nominal speed from raw wall-clock ops_per_s "
              f"{raw['ops_per_s']:.6g}, p50 {raw['latency_p50_ms']:.6g} ms, "
              f"p90 {raw['latency_p90_ms']:.6g} ms (reference kernel "
              f"{raw['reference_ms']:.6g} ms)")
        return
    print("   scaling (layer, case, size, seconds per call):")
    for fn, sizes in SIZED.items():
        layer, case = fn.split(".", 1)
        for size in sizes:
            value = res["metrics"][f"{fn}.s.{size}"]
            if value:
                print(f"     {layer:<10} {case:<18} {size:<11} {value:.6f}")
    zero = all(res["metrics"][name] == 0 for name in ISOLATION[w])
    print(f"   isolation ({', '.join(ISOLATION[w])} all zero): "
          f"{'ok' if zero else 'VIOLATED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tropcyl" / "cli.py").is_file():
        print(f"perfbench: no tropcyl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tropcyl

    if Path(tropcyl.__file__).resolve().parent != SRC / "tropcyl":
        print(f"perfbench: imported tropcyl from {tropcyl.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    env = _environment()
    print(f"# perfbench seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {json.dumps(env, sort_keys=True)}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        res = run_workload(workload, args.seed, args.seconds, args.trace)
        _print_report(res, args.trace)
        results.append(res)

    def key(res, name):
        return name if len(results) == 1 else f"{res['workload']}.{name}"

    summary = {
        "correct": all(not r["problems"] and r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {key(r, name): {"value": value, "unit": r["units"][name]}
                    for r in results for name, value in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
