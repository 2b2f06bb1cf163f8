"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

1. Runs every workload in the shortened `--smoke` mode, untraced and traced,
   and asserts that every metric is printed with its unit and that the last
   line carries exactly the metrics BENCHMARK.json lists.
2. Asserts that the correctness check rejects bounds compared with
   deliberately wrong planted references, and an export read back against
   wrong sizes.
3. Runs the known-defect row (motzkin-chain-N2 `cs` k=5, ROADMAP item 1),
   which the timed workloads leave out, asserts that the check counts its
   recorded crossing bound as a failure and reports whether it still does.
4. Asserts that the benchmark fails, printing no result, in a directory
   holding only BENCHMARK.json and the benchmark's own files.

Exits non-zero at the first failed assertion.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "smoke"


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def printed_units(lines):
    units = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] in ("metric", "layer"):
            units[parts[1]] = parts[3]
    return units


def check_workloads(spec, W, run_py, S):
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run_py.END_TO_END, (e2e, run_py.END_TO_END)
    assert layer == S.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    for name in W.WORKLOADS:
        for trace, listed in ((0, e2e), (1, layer)):
            proc = run(name, trace)
            assert proc.returncode == 0, (name, trace, proc.stderr[-2000:])
            lines = proc.stdout.splitlines()
            units = printed_units(lines)
            wanted = {**run_py.END_TO_END, **run_py.REPORT_ONLY}
            if trace:
                wanted.update(layer)
            for metric, unit in wanted.items():
                assert units.get(metric) == unit, (name, trace, metric, units)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
            for metric, entry in result["metrics"].items():
                assert math.isfinite(entry["value"]), (name, metric, entry)
            print(f"ok  {name} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} checked, {result['failed']} failed")


def check_planted_references(W, cli):
    SCRATCH.mkdir(parents=True, exist_ok=True)
    rows = (  # one minimized and one maximized bound
        W.Row("overlap-chain-N8-s1", "epigraph", (3,)),
        W.Row("rosenbrock-ratio-N10", "cs-signsym", (2,), maximize=True),
    )
    problems, paths = W.set_up(rows, 1, str(SCRATCH))
    refs = W.all_references(rows, problems)
    for row in rows:
        out = str(SCRATCH / "out.json")
        rc = quiet(cli.main, row.argv(paths[row.instance], out))
        with open(out) as fh:
            payload = json.load(fh)
        true_ref = refs[row.instance]
        assert all(o.ok for o in W.check_solve(row, rc, payload, true_ref)), row
        # a reference on the far side of the true optimum: a valid bound
        # now reads as crossing it
        shift = -1.0 if row.maximize else 1.0
        planted = W.Reference(true_ref.value - shift, true_ref.tol, True, "planted")
        (bad,) = W.check_solve(row, rc, payload, planted)
        assert not bad.ok and bad.excess > 0.5, (row, bad)
        payload["bound"] = float("nan")
        (nan,) = W.check_solve(row, rc, payload, true_ref)
        assert not nan.ok, (row, nan)
    table_row = W.WORKLOADS["sweep-small"].rows[0]
    close = {"sweep": [{"k": k, "status": "optimal", "bound": v}
                       for k, v in W.UNIT_BALL_MIX_TABLE[("dense", None)].items()]}
    table_refs = W.references("unit-ball-mix", None)
    assert all(o.ok for o in W.check_solve(table_row, 0, close, table_refs))
    close["sweep"][0]["bound"] -= 0.01  # below the table: not the relaxation's value
    assert not W.check_solve(table_row, 0, close, table_refs)[0].ok

    export = next(r for r in W.WORKLOADS["sweep-small"].rows if r.export)
    problems, paths = W.set_up([export], 1, str(SCRATCH))
    out = str(SCRATCH / "out.dat-s")
    assert quiet(cli.main, export.argv(paths[export.instance], out)) == 0
    expected = W.expected_export(problems[export.instance], export)
    payload = {"variables": expected[0], "equalities": expected[2]}
    assert W.check_read_back(out, payload, expected).ok
    wrong = (expected[0], expected[1] + 1, expected[2])
    assert not W.check_read_back(out, payload, wrong).ok
    print("ok  planted references and read-back sizes are rejected")


def check_known_defect(W, cli):
    row = W.KNOWN_DEFECT
    SCRATCH.mkdir(parents=True, exist_ok=True)
    problems, paths = W.set_up([row], 1, str(SCRATCH))
    ref = W.references(row.instance, problems[row.instance])
    recorded = {"k": row.orders[0], "status": "near_optimal",
                "bound": 8.000036281496818}
    (was,) = W.check_solve(row, 0, recorded, ref)
    assert not was.ok and was.excess > 3e-5, was
    out = str(SCRATCH / "out.json")
    rc = quiet(cli.main, row.argv(paths[row.instance], out))
    payload = None
    with contextlib.suppress(OSError, ValueError), open(out) as fh:
        payload = json.load(fh)
    (now,) = W.check_solve(row, rc, payload, ref)
    state = "still fails" if not now.ok else "checks clean now"
    detail = now.reason or f"bound {payload.get('bound')!r}"
    print(f"ok  known defect {row.label()} {state}: {detail}")


def check_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("sweep-small", 0, cwd=bare, script=bare / HERE.name / "run.py")
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    shutil.rmtree(bare)
    print("ok  no result and a non-zero exit without the sources")


def main():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from ratsos import cli

    import run as run_py
    import spans as S
    import workloads as W

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    try:
        check_planted_references(W, cli)
        check_known_defect(W, cli)
        check_without_sources()
        check_workloads(spec, W, run_py, S)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
