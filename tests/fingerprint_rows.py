"""Print a fingerprint of each reference row of the solver.

One line per row: label, status, iterations, `krylov_applies`, primal, the
reported bound (`repr`) and certified flag of the row's `RunResult`, and
the first 16 hex digits of sha256(y bytes + repr of primal, dual, gap,
pinf, dinf, status, iterations, schur_blocks).  The rows are the 28
`ratsos bench` rows and `rand-srfo` `dense`/`signsym` k=3 at seeds 2, 5,
7001 and 7003, each built and solved by `solve_relaxation` as `ratsos
bench` does.  After the rows comes one line per probe (`PROBES`, each
solved by `dense` at k=2 on the variables x1 and x2): label, status,
iterations, the reported bound (`repr`) and certified flag.  The probes
break the method's precondition (a denominator not positive on K, an
empty K, a pinned variable), so these lines show what the pipeline reports
where it cannot hold a sound bound.  Last come the structure lines
(`STRUCTURES`): for each listed `ratsos gen` instance the first 16 hex
digits of the sha256 of its `ratsos analyze` output, and the same digest
of the SDPA export of `rosenbrock --N 100` by `cs-signsym` at k=2, so a
change to the structure stage or the build shows up even where no row's
bits move.  A change that must leave the solver bit-identical prints the
same lines before and after:

    PYTHONPATH=src python tests/fingerprint_rows.py > rows.txt

With `--compare rows.txt` it prints only the rows, probes and structure
lines whose line differs from the saved one (the saved line first,
prefixed "-", then the new one, "+") and exits 1 if any differs or is
missing on either side.  A line "N of M rows differ, P of Q probes
differ, S of T structures differ" goes to stderr before the totals, M, Q
and T counting every line of either side, so the share of bit-identical
rows reads off directly:

    PYTHONPATH=src python tests/fingerprint_rows.py --compare rows.txt

To compare against an older commit, make its file with this script and the
older commit's sources, since an older copy of the script may print fewer
fields:

    PYTHONPATH=<older checkout>/src python tests/fingerprint_rows.py > rows.txt

With `--repeat N` each row is built and solved N times, and the minimum
over the N runs of its build and of its solve seconds (as `ratsos bench`
times them) goes to stderr, one line per row and a total line; stdout is
the same as without it, so `--compare` works alongside:

    PYTHONPATH=src python tests/fingerprint_rows.py --repeat 3 > rows.txt 2> times.txt

The summed iterations and `krylov_applies` over the rows (the probes
left out), how many rows ended in each status, the summed line count of
`src/ratsos/*.py` and `import_s`, the least of three fresh-interpreter
timings of `import ratsos.cli` in seconds, go to stderr as a last line, so
a run states the totals a solver change is judged by, and the code size
and start-up cost next to them.

It takes about 14 s on one core of a shared 2-core box; `--repeat N`
runs the rows N times.
pytest does not collect this file.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import pathlib
import subprocess
import sys
import tempfile

import ratsos
from ratsos.cli import BENCH_TABLES, _bench_rows, main as cli_main
from ratsos.families import gen_rand_srfo
from ratsos.problem import parse
from ratsos.relax import solve_relaxation


def fingerprint(rep):
    facts = (rep.primal, rep.dual, rep.gap, rep.pinf, rep.dinf, rep.status,
             rep.iterations, rep.schur_blocks)
    digest = hashlib.sha256(rep.y.tobytes() + repr(facts).encode())
    return digest.hexdigest()[:16]


def rows():
    """(label, problem, method, k, ratio order) of every reference row."""
    for table in BENCH_TABLES:
        for prob, method, k, order in _bench_rows(table):
            yield f"{table}:{prob.name}:{method}:{order}:{k}", prob, method, k, order
    for seed in (2, 5, 7001, 7003):
        prob = gen_rand_srfo(6, 4, 3, 0.2, seed)
        for method in ("dense", "signsym"):
            yield f"srfo{seed}:{method}:3", prob, method, 3, None


DISK = "constraint: 1 - x1^2 - x2^2 >= 0\n"

# (label, ratio and constraint lines) of the probes, each solved by `dense`
# at k=2
PROBES = (
    ("1/x1", "ratio: (1)/(x1)\n" + DISK),
    ("1/(x1 - 2)", "ratio: (1)/(x1 - 2)\n" + DISK),
    ("x2/(x1^2 + x2^2)", "ratio: (x2)/(x1^2 + x2^2)\n" + DISK),
    ("x1/1 empty", "ratio: (x1)/(1)\n" + DISK + "constraint: x1^2 + x2^2 - 2 >= 0\n"),
    ("(x1 + x2)/1 pinned", "ratio: (x1 + x2)/(1)\n"
     "constraint: -x1^4 >= 0\nconstraint: 1 - x2^2 >= 0\n"),
)


def probes():
    """(label, problem) of every probe, on the variables x1 and x2."""
    for label, text in PROBES:
        yield f"probe:{label}", parse("vars x1 x2\n" + text)


# `ratsos gen` arguments of the instances whose `ratsos analyze` output is
# hashed
STRUCTURES = (
    "reznick --M 6 --d 2",
    "motzkin --N 2",
    "rosenbrock --N 10",
    "ballmix",
    "overlap --N 8 --s 1",
    "reznick-sparse --N 4 --d 2",
    "rand --N 4 --n 4 --d 3 --xi 0.2 --seed 5",
    "shekel --n 3",
    "rayleigh --n 2 --N 2 --seed 1",
)


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def run_cli(argv):
    """Stdout of one `ratsos` command, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"ratsos {' '.join(argv)} exited {code}")
    return out.getvalue()


def structures():
    """(label, digest) of every `analyze` output and of the SDPA export."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp, "instance.srfo"))
        for args in STRUCTURES:
            run_cli(["gen", *args.split(), "--out", path])
            yield (f"structure:analyze {args}",
                   digest(run_cli(["analyze", path]).encode()))
        target = pathlib.Path(tmp, "instance.dat-s")
        run_cli(["gen", "rosenbrock", "--N", "100", "--out", path])
        run_cli(["solve", path, "--method", "cs-signsym", "--order", "2",
                 "--solver", "sdpa-export", "--out", str(target)])
        yield ("structure:export rosenbrock --N 100 cs-signsym k=2",
               digest(target.read_bytes()))


def src_lines():
    """Summed line count of the imported package's sources, as `wc -l` counts."""
    src = pathlib.Path(ratsos.__file__).parent
    return sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))


# times `import ratsos.cli` in a fresh interpreter, its own start-up excluded
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import ratsos.cli; print(time.perf_counter() - t)"
)


def import_s(repeats=3):
    """Least of `repeats` fresh-interpreter timings of `import ratsos.cli`."""
    src = str(pathlib.Path(ratsos.__file__).resolve().parents[1])
    return min(
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, src],
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(repeats)
    )


# fields after the label, per kind of line
FIELDS = {"rows": 7, "probes": 4, "structures": 1}


def kind_of(line):
    if line.startswith("probe:"):
        return "probes"
    if line.startswith("structure:"):
        return "structures"
    return "rows"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="print only the rows that differ from a saved run")
    parser.add_argument("--repeat", metavar="N", type=int,
                        help="solve each row N times and print the minimum "
                             "build and solve seconds to stderr")
    args = parser.parse_args()
    if args.repeat is not None and args.repeat < 1:
        parser.error("--repeat must be at least 1")
    saved = None
    if args.compare:
        with open(args.compare) as fh:
            # the label is all but the last seven fields of a row, the last
            # four of a probe and the last one of a structure line (it may
            # hold spaces)
            saved = {line.rsplit(" ", FIELDS[kind_of(line)])[0]:
                     line.rstrip("\n") for line in fh if line.strip()}
    differ = collections.Counter()
    seen = collections.Counter()

    def report(kind, label, fields):
        line = " ".join(map(str, (label, *fields)))
        if saved is None:
            print(line, flush=True)
            return
        seen[kind] += 1
        old = saved.pop(label, None)
        if old != line:
            differ[kind] += 1
            print(f"-{old or label + ' (missing)'}\n+{line}", flush=True)

    total = [0.0, 0.0]
    iterations = applies = 0
    statuses = collections.Counter()
    for label, prob, method, k, order in rows():
        runs = [solve_relaxation(prob, method, k, ratio_order=order)
                for _ in range(args.repeat or 1)]
        res = runs[0]
        rep = res.report
        iterations += rep.iterations
        applies += rep.krylov_applies
        statuses[rep.status] += 1
        if args.repeat:
            build_s = min(r.build_ms for r in runs) / 1000.0
            solve_s = min(r.solve_ms for r in runs) / 1000.0
            total[0] += build_s
            total[1] += solve_s
            print(f"{label} build {build_s:.4f} s solve {solve_s:.4f} s",
                  file=sys.stderr, flush=True)
        report("rows", label, (rep.status, rep.iterations, rep.krylov_applies,
                               repr(rep.primal), repr(res.bound), res.certified,
                               fingerprint(rep)))
    for label, prob in probes():
        res = solve_relaxation(prob, "dense", 2)
        report("probes", label, (res.report.status, res.report.iterations,
                                 repr(res.bound), res.certified))
    for label, hexdigest in structures():
        report("structures", label, (hexdigest,))
    for old in (saved or {}).values():
        kind = kind_of(old)
        seen[kind] += 1
        differ[kind] += 1
        print(f"-{old}\n+(missing)", flush=True)
    if args.repeat:
        print(f"total build {total[0]:.4f} s solve {total[1]:.4f} s "
              f"(min of {args.repeat} per row)", file=sys.stderr)
    if saved is not None:
        print(", ".join(f"{differ[kind]} of {seen[kind]} {kind} differ"
                        for kind in FIELDS), file=sys.stderr)
    tally = " ".join(f"{status} {n}" for status, n in statuses.most_common())
    print(f"total iterations {iterations} krylov_applies {applies} "
          f"statuses {tally} src_lines {src_lines()} import_s {import_s():.3f}",
          file=sys.stderr)
    return 1 if differ.total() else 0


if __name__ == "__main__":
    sys.exit(main())
