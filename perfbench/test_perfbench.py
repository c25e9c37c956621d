"""Self-tests of the benchmark: determinism, exact counters, the checks.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

# Counters that must repeat exactly for a given seed.
EXACT = ("extension.extend.steps", "extension.extend.wasted_steps_frac",
         "wallcross.series_terms", "lattice.is_positive.calls",
         "lattice.verify_toric_criterion.pairs", "serialize.report_bytes")


def _traced_pass(workload, seed, workdir):
    """Per-layer metrics of one traced pass, run in this process."""
    ops, files = gen.generate(workload, seed)
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    tracer = tracing.Tracer()
    try:
        runner = worker.Runner(ops, tracer)
        tracer.install()
        outcomes = []
        for i in range(len(ops)):
            tracer.current = (0, i)
            outcomes.append(runner.run(i))
    finally:
        tracer.uninstall()
        os.chdir(cwd)
    report_bytes = sum(len(out.encode()) for op, (_, out, _) in
                       zip(ops, outcomes) if op["kind"] == "cli")
    unscaled = {(0, i): 1 for i in range(len(ops))}
    return outcomes, tracing.layer_metrics(
        tracer.spans, [op["tag"] for op in ops], unscaled, report_bytes, 0.0)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generation_repeats_for_a_seed(workload):
    assert gen.generate(workload, 7) == gen.generate(workload, 7)
    assert gen.generate(workload, 7) != gen.generate(workload, 8)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_counters_repeat_and_outputs_check(workload, tmp_path):
    first_dir, second_dir = tmp_path / "a", tmp_path / "b"
    first_dir.mkdir()
    second_dir.mkdir()
    outcomes, first = _traced_pass(workload, 3, first_dir)
    _, second = _traced_pass(workload, 3, second_dir)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}

    ops, files = gen.generate(workload, 3)
    assert [check.check(op, o, files) for op, o in zip(ops, outcomes)] == \
        [None] * len(ops)
    for name in run.ISOLATION[workload]:
        assert first[name] == 0, name


def _negative_semidefinite(m):
    """Exact test by symmetric elimination over Q (test-only oracle)."""
    a = [[Fraction(-x) for x in row] for row in m]  # is -M PSD?
    n = len(a)
    for k in range(n):
        if a[k][k] < 0:
            return False
        if a[k][k] == 0:
            if any(a[k][j] != 0 for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


def test_base_expectations_are_exact():
    for seed in (1, 2, 3):
        ops, _ = gen.generate("base", seed)
        for op in ops:
            if op["kind"] != "cli":
                continue
            ds = op["expect"]["pair"]
            positive = not _negative_semidefinite(check._matrix(ds))
            assert positive == op["expect"]["positive"], ds
            if op["expect"]["kind"] == "toric":
                assert check._monodromy(ds) == [[1, 0], [0, 1]], ds


def test_checks_reject_wrong_outputs():
    count_op = {"kind": "cli", "argv": ["count", "--l", "5", "--m", "0",
                                        "--n", "2"], "tag": None,
                "expect": {"l": 5, "m": 0, "n": 2}}
    good = {"l": 5, "m": 0, "n": 2, "count": 10, "oracle": 10, "match": True,
            "symmetry": True}
    assert check.check(count_op, (0, json.dumps(good) + "\n", ""), None) is None
    bad = dict(good, count=11)
    assert check.check(count_op, (0, json.dumps(bad) + "\n", ""), None)
    assert check.check(count_op, (2, json.dumps(good) + "\n", ""), None)
    assert check.check(count_op, (None, "", "Traceback ...\nValueError\n"), None)

    spiral = {"kind": "cli", "argv": ["extend", "m2x4.json", "s.json",
                                      "--max-steps", "200"], "tag": None,
              "expect": {"exit": 1, "steps": 200}}
    report = {"error": "NotExtendable",
              "detail": "extension not finished after 200 steps"}
    assert check.check(spiral, (1, json.dumps(report), ""), None) is None
    short = dict(report, detail="extension not finished after 199 steps")
    assert check.check(spiral, (1, json.dumps(short), ""), None)

    ds = [-2] * 4
    base_op = {"kind": "cli", "argv": ["base", "p.json"], "tag": None,
               "expect": {"pair": ds, "kind": "nonpositive", "positive": False}}
    report = {"pair": ds, "cones": 4, "walls": 4,
              "monodromy": check._monodromy(ds),
              "monodromy_is_identity": False, "monodromy_trace": 2,
              "fan_closure": None, "intersection_matrix": check._matrix(ds),
              "positive": False}
    assert check.check(base_op, (0, json.dumps(report), ""), None) is None
    flipped = dict(report, positive=True)
    assert check.check(base_op, (0, json.dumps(flipped), ""), None)


def test_extension_checks_reject_a_cylinder_without_legs(tmp_path):
    ops, files = gen.generate("extend", 3)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        runner = worker.Runner(ops, tracing.Tracer())
        for i, op in enumerate(ops):
            if "family" in op["expect"]:
                code, out, err = runner.run(i)
                if json.loads(out)["cylinder"]["legs"]:
                    break
    finally:
        os.chdir(cwd)
    assert check.check(ops[i], (code, out, err), files) is None
    cylinder = json.loads(out)["cylinder"]
    origins = {v["id"] for v in cylinder["vertices"] if v.get("origin")}
    cylinder["legs"] = []
    cylinder["edges"] = [e for e in cylinder["edges"]
                         if not {e["tail"], e["head"]} & origins]
    cylinder["vertices"] = [v for v in cylinder["vertices"]
                            if v["id"] not in origins]
    report = dict(json.loads(out), cylinder=cylinder)
    assert check.check(ops[i], (code, json.dumps(report), err), files)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert spec["per_layer"] == tracing.PER_LAYER
