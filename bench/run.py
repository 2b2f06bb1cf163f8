"""ratsos benchmark: one workload, end to end through `ratsos.cli.main`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's `ratsos solve` calls in one process, in a closed loop,
pass after pass (at least one), as long as one more pass at the mean pass
time so far still fits in S seconds of timed calls.  Every relaxation's
output is checked.  The report lines name every metric with its unit; the
last line is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  See README.md.
"""

import time

_T0 = time.perf_counter()  # this process's own import time, printed beside setup_s

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# the imports of this script, timed in a fresh interpreter
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "from ratsos import cli; import spans, workloads; "
    "print(time.perf_counter() - t)"
)

# end-to-end metrics in the final JSON line: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "relaxations_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# printed in the report only: the call latencies follow the seeded instance
# (which call is the median moves with it), and the others are zero (or n/a)
# whenever every check passes or too few calls were made
REPORT_ONLY = {
    "call_p50_s": "s",
    "call_p90_s": "s",
    "fail_frac": "fraction",
    "optimal_frac": "fraction",
    "bound_excess_max": "objective",
}


@dataclass
class Pass:
    wall: float = 0.0
    latencies: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)  # (row, Outcome)
    exports: list = field(default_factory=list)  # (outcome index, row, path, payload, key)
    spans: list | None = None

    @property
    def completed(self):
        return sum(
            1 for _, o in self.outcomes
            if o.status in ("optimal", "near_optimal", "exported")
        )


def run_pass(cli, W, rows, paths, refs, workdir, tag, kept, tracer=None):
    """One closed-loop pass over the rows; checks run outside the timer.

    An exported file is kept for the read-back only when its content is new
    (`kept` holds the keys of the files kept so far).
    """
    p = Pass()
    for i, row in enumerate(rows):
        suffix = "dat-s" if row.export else "json"
        out = str(workdir / f"{tag}-{i}.{suffix}")
        argv = row.argv(paths[row.instance], out)
        captured = io.StringIO()
        traced = tracer.call(i, row.sweep) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with traced, contextlib.redirect_stdout(captured):
                rc = cli.main(argv)
        except Exception:  # a crash counts as a failed call; keep measuring
            traceback.print_exc()
            rc = None
        latency = time.perf_counter() - start
        p.latencies.append(latency)
        p.wall += latency
        if row.export:
            payload = _json_or_none(captured.getvalue())
            outcome = W.check_export_payload(rc, payload, out)
            if outcome.ok:
                with open(out, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                key = (row, digest, payload["variables"], payload["equalities"])
                if key in kept:
                    os.remove(out)
                kept.add(key)
                p.exports.append((len(p.outcomes), row, out, payload, key))
            p.outcomes.append((row, outcome))
        else:
            payload = None
            if os.path.isfile(out):
                with open(out) as fh:
                    payload = _json_or_none(fh.read())
                os.remove(out)
            refs_row = refs[row.instance]
            p.outcomes += [
                (row, o) for o in W.check_solve(row, rc, payload, refs_row)
            ]
    if tracer:
        p.spans = tracer.spans
    return p


def _json_or_none(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def read_back(W, passes, problems):
    """Read each distinct exported file back once; check it against a fresh build."""
    expected, verdicts = {}, {}
    for p in passes:
        for idx, row, path, payload, key in p.exports:
            if key not in verdicts:
                if row not in expected:
                    expected[row] = W.expected_export(problems[row.instance], row)
                verdicts[key] = W.check_read_back(path, payload, expected[row])
                os.remove(path)
            if not verdicts[key].ok:
                p.outcomes[idx] = (row, verdicts[key])


def percentile_with_tail(values, q, tail=10):
    """q-quantile, or None unless at least `tail` samples lie beyond it."""
    n = len(values)
    if n - math.ceil(q * n) < tail:
        return None
    return sorted(values)[math.ceil(q * n) - 1]


def best_wall(passes):
    """Wall time of a pass with every call at its fastest over the passes.

    On a shared 2-core box a call's latency swings with other load, and the
    `--orders` pool is bimodal (a sweep takes either ~1x or ~2x); taking
    each call's minimum keeps one slow call from moving the whole pass.
    """
    return sum(
        min(p.latencies[i] for p in passes)
        for i in range(len(passes[0].latencies))
    )


def median_call(passes):
    """Median over the workload's calls of each call's median over the passes.

    Pooling every latency would put the median at the seam between two
    calls of different length, on the slowest sample of one of them.
    """
    return statistics.median(
        statistics.median(p.latencies[i] for p in passes)
        for i in range(len(passes[0].latencies))
    )


def end_to_end(passes, all_passes, setup_s, peak_rss_mb):
    wall = best_wall(passes)
    latencies = [x for p in passes for x in p.latencies]
    outcomes = [o for p in all_passes for _, o in p.outcomes]
    solves = [o for p in all_passes for row, o in p.outcomes if not row.export]
    failed = sum(1 for o in outcomes if not o.ok)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "relaxations_per_s": statistics.median(p.completed for p in passes) / wall,
        "call_p50_s": median_call(passes),
        "peak_rss_mb": peak_rss_mb,
        "call_p90_s": percentile_with_tail(latencies, 0.9),
        "fail_frac": failed / len(outcomes),
        "optimal_frac": (
            sum(1 for o in solves if o.status == "optimal") / len(solves)
            if solves else None
        ),
        "bound_excess_max": max(o.excess for o in outcomes),
    }, len(outcomes), failed, len(latencies)


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "loadavg": os.getloadavg(),
    }


def import_times():
    """Seconds to import ratsos and the benchmark's modules, once per fresh
    interpreter; the interpreter's own start-up is not included."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return times


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fmt(value):
    return "n/a" if value is None else repr(value)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shortened row set, for the smoke test")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ratsos" / "__init__.py").is_file():
        print(f"ratsos sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ratsos import cli

    import spans as S
    import workloads as W

    import_s = time.perf_counter() - _T0
    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    rows = wl.smoke_rows if args.smoke else wl.rows
    env = environment(args.seed)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            problems, paths = W.set_up(rows, args.seed, str(workdir))
            setup_times.append(time.perf_counter() - t)
        probe_times = import_times()
        setup_s = statistics.median(probe_times) + statistics.median(setup_times)
        refs = W.all_references(rows, problems)

        untraced, traced, kept = [], [], set()
        timed = 0.0
        n = 0
        while True:
            p = run_pass(cli, W, rows, paths, refs, workdir, f"p{n}", kept)
            untraced.append(p)
            timed += p.wall
            if n == 0:
                peak_rss_mb = _max_rss_mb()
            if args.trace:
                tracer = S.Tracer()
                with tracer.installed():
                    p = run_pass(cli, W, rows, paths, refs, workdir, f"t{n}", kept,
                                 tracer)
                traced.append(p)
                timed += p.wall
            n += 1
            if timed + timed / n > args.seconds:
                break  # one more pass, at the mean pass time so far, would overrun
        final_rss_mb = _max_rss_mb()
        all_passes = untraced + traced
        read_back(W, all_passes, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, attempted, failed, calls = end_to_end(untraced, all_passes, setup_s, peak_rss_mb)
    print(f"# workload {wl.name}: {wl.why}")
    print(f"# passes {len(untraced)} untraced, {len(traced)} traced; "
          f"{calls} calls, {attempted} relaxations checked, {failed} failed")
    print("# pass walls (s): untraced "
          + " ".join(f"{p.wall:.3f}" for p in untraced)
          + (" | traced " + " ".join(f"{p.wall:.3f}" for p in traced) if traced else ""))
    print(f"# setup: import {import_s:.3f} s in-process, "
          + " ".join(f"{t:.3f}" for t in probe_times) + " s fresh; generation "
          + " ".join(f"{t:.3f}" for t in setup_times) + " s")
    print(f"# peak RSS: {peak_rss_mb:.1f} MB after the first pass, "
          f"{final_rss_mb:.1f} MB after the last")
    print("env " + json.dumps(env))
    reported = set()
    for p in all_passes:
        for row, o in p.outcomes:
            if not o.ok and (row, o.reason) not in reported:
                reported.add((row, o.reason))
                print(f"FAIL {row.label()}: {o.reason}")
    for name, unit in {**END_TO_END, **REPORT_ONLY}.items():
        note = f"  # {calls} samples" if name.startswith("call_") else ""
        print(f"metric {name} {_fmt(e2e[name])} {unit}{note}")

    if args.trace:
        per_pass = [S.layer_metrics(p.spans) for p in traced]
        layers = {
            name: statistics.median_low(m[name] for m in per_pass)
            for name in per_pass[0]
        }
        layers["trace.overhead_s"] = (
            best_wall(traced) - e2e["wall_s"]
        )
        for name, unit in S.LAYER_METRICS.items():
            tag = "  # computed" if name.split(".", 1)[1] in S.COMPUTED else ""
            print(f"layer {name} {layers[name]!r} {unit}{tag}")
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump({
                "env": env,
                "passes": [[vars(s) for s in p.spans] for p in traced],
            }, fh)
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in S.LAYER_METRICS.items()
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
