"""Command-line front end: solve, analyze, generate, benchmark.

Exit codes: 0 for a successful solve (status optimal/near_optimal) or a
successful export/generate/analyze, 1 for unusable solves, 3 for parse
errors, 4 for build errors, 5 for solver errors.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time

from . import __version__
from .corrsparse import build_cliques, ensure_ball_constraints
from .errors import (
    BuildError,
    CliqueStructureError,
    ParseError,
    RatsosError,
    SolveError,
)
from .families import (
    FAMILIES,
    gen_motzkin_chain,
    gen_overlap_chain,
    gen_rand_srfo,
    gen_reznick_chain,
    gen_reznick_sparse_chain,
    gen_rosenbrock_ratio,
    gen_unit_ball_mix,
)
from .poly import full_basis
from .problem import parse, serialize
from .relax import METHODS, build, min_order, solve_relaxation
from .sdp import export_sdpa, to_standard_form
from .signsym import block_partition, global_support, sign_symmetries, support_sets

EXIT_SOLVE_NOT_OK = 1
EXIT_PARSE = 3
EXIT_BUILD = 4
EXIT_SOLVE = 5

SCHEMA_VERSION = 1


def _load_problem(path, maximize=False):
    with open(path) as fh:
        prob = parse(fh.read())
    if maximize:
        # the builders negate the numerators internally and the reported
        # bound is negated back, so the flag only marks the sense here
        prob.maximize = True
    return prob


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=False, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _number(value):
    """A float for JSON, or None (null) where it is not finite."""
    value = float(value)
    return value if math.isfinite(value) else None


def _result_payload(prob, res):
    hist = {str(k): v for k, v in res.rsdp.block_size_histogram().items()}
    return {
        "schema": SCHEMA_VERSION,
        "problem": prob.name or "<unnamed>",
        "method": res.method,
        "k": res.order,
        "bound": _number(res.bound),
        "primal": _number(res.primal),
        "dual": _number(res.dual),
        "gap": _number(res.report.gap),
        "pinf": _number(res.report.pinf),
        "dinf": _number(res.report.dinf),
        "status": res.report.status,
        "iterations": res.report.iterations,
        "schur_blocks": list(res.report.schur_blocks),
        "krylov_applies": res.report.krylov_applies,
        "block_size_histogram": hist,
        "certified": bool(res.certified),
        "time_ms": {
            "build": round(res.build_ms, 3),
            "solve": round(res.solve_ms, 3),
        },
    }


def _parse_orders(args, prob, method):
    if args.orders:
        lo, _, hi = args.orders.partition("..")
        try:
            orders = list(range(int(lo), int(hi) + 1))
        except ValueError:
            orders = []
        if not orders:
            raise BuildError(
                f"--orders takes K1..K2 with K1 <= K2, not {args.orders!r}"
            )
        return orders
    if args.order is not None:
        return [args.order]
    return [min_order(prob, method)]


def cmd_solve(args):
    prob = _load_problem(args.file, maximize=args.maximize)
    ratio_order = None
    if args.ratio_order:
        try:
            ratio_order = tuple(int(t) - 1 for t in args.ratio_order.split(","))
        except ValueError:
            raise BuildError(
                f"--ratio-order takes ratio numbers, not {args.ratio_order!r}"
            ) from None
    orders = _parse_orders(args, prob, args.method)

    if args.solver == "sdpa-export":
        if args.orders:
            raise BuildError(
                "sdpa-export writes one relaxation: give --order, not --orders"
            )
        rsdp = build(prob, args.method, orders[0], ratio_order=ratio_order)
        sf = to_standard_form(rsdp)
        target = args.out or (os.path.splitext(args.file)[0] + ".dat-s")
        export_sdpa(sf, target)
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "problem": prob.name or "<unnamed>",
                "method": args.method,
                "k": orders[0],
                "status": "exported",
                "path": target,
                "variables": sf.num_vars,
                "equalities": sf.num_eq,
            },
            None,
        )
        return 0

    results = [
        solve_relaxation(
            prob, args.method, k, ratio_order=ratio_order, tol=args.tol
        )
        for k in orders
    ]

    payloads = [_result_payload(prob, res) for res in results]
    _emit(payloads[0] if len(payloads) == 1 else
          {"schema": SCHEMA_VERSION, "sweep": payloads}, args.out)
    ok = all(res.report.ok() for res in results)
    return 0 if ok else EXIT_SOLVE_NOT_OK


def cmd_analyze(args):
    prob = _load_problem(args.file)
    n = prob.nvars
    lines = [f"problem {prob.name or '<unnamed>'}: "
             f"{n} variables, {prob.num_ratios} ratios, "
             f"{len(prob.constraints)} constraints"]
    sets = support_sets(prob)
    groups = [sign_symmetries(s, n) for s in sets]
    names = prob.names()
    for i, group in enumerate(groups):
        vecs = [
            "".join(str(b) for b in vec) for vec in group.basis_vectors()
        ]
        lines.append(
            f"measure {i + 1}: sign-symmetry rank {group.rank}"
            + (f", basis {{{', '.join(vecs)}}}" if vecs else "")
        )
    gglobal = sign_symmetries(global_support(prob), n)
    lines.append(f"global group rank {gglobal.rank}")
    d_min = min_order(prob, "dense")
    for k in range(d_min, d_min + 3):
        hists = []
        for group in groups:
            part = block_partition(group, full_basis(n, k))
            sizes = {}
            for cls in part:
                sizes[len(cls)] = sizes.get(len(cls), 0) + 1
            hists.append(
                "{" + ", ".join(f"{s}x{c}" for s, c in sorted(sizes.items(), reverse=True)) + "}"
            )
        lines.append(f"order {k} moment-block histograms: " + " | ".join(hists))
    try:
        cs = build_cliques(prob)
        lines.append(
            "cliques: "
            + "; ".join(
                "{" + ", ".join(names[v] for v in cl) + "}" for cl in cs.cliques
            )
        )
        if cs.given_order_witness is not None:
            bad, overlap = cs.given_order_witness
            lines.append(
                f"RIP: violated by the given order at clique {bad + 1} "
                f"(overlap {{{', '.join(names[v] for v in overlap)}}}); "
                f"repaired order: {', '.join(str(i + 1) for i in cs.rip_order)}"
            )
        else:
            lines.append("RIP: holds in the given order")
    except CliqueStructureError as exc:
        lines.append(f"RIP: {exc}")
    print("\n".join(lines))
    return 0


def cmd_gen(args):
    family = FAMILIES.get(args.family)
    if family is None:
        print(f"unknown family {args.family!r}; choose from "
              f"{', '.join(sorted(FAMILIES))}", file=sys.stderr)
        return EXIT_BUILD
    kwargs = {}
    for key in ("M", "d", "n", "N", "s", "xi", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            kwargs[key] = val
    sig = inspect.signature(family)
    try:
        bound_args = {k: v for k, v in kwargs.items() if k in sig.parameters}
        missing = [
            p.name for p in sig.parameters.values()
            if p.default is inspect.Parameter.empty and p.name not in bound_args
        ]
        if missing:
            print(
                f"family {args.family!r} needs --{' --'.join(missing)}",
                file=sys.stderr,
            )
            return EXIT_BUILD
        prob = family(**bound_args)
    except (ValueError, RatsosError) as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_BUILD
    if args.balls:
        cs = build_cliques(prob)
        prob = ensure_ball_constraints(prob, cs)
    text = serialize(prob)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


BENCH_TABLES = {
    "table1": "ball-mix instance: dense and per-case masked bounds",
    "table2": "even chain M=6 d=2 at k=6: dense vs masked",
    "table3": "three random instances at k=3: dense vs masked",
    "table4": "interlocked chain N=2 at k=5: per-clique methods",
    "table5": "sparse even chain N=5 d=2 at k=6: per-clique methods",
    "table7": "reciprocal valley chain N=10: per-clique masked and lifted",
    "table8": "sliding-window chain N=8 s=1 at k=3: all sparse methods",
}


def _bench_rows(table):
    if table == "table1":
        prob = gen_unit_ball_mix()
        rows = [(prob, "dense", k, None) for k in (2, 3)]
        for order in (None, (1, 0, 2), (2, 0, 1)):
            rows += [(prob, "signsym", k, order) for k in (2, 3, 4)]
        return rows
    if table == "table2":
        prob = gen_reznick_chain(6, 2)
        return [(prob, "dense", 6, None), (prob, "signsym", 6, None)]
    if table == "table3":
        rows = []
        for seed in (1, 2, 3):
            prob = gen_rand_srfo(6, 4, 3, 0.2, seed)
            rows += [(prob, "dense", 3, None), (prob, "signsym", 3, None)]
        return rows
    if table == "table4":
        prob = gen_motzkin_chain(2)
        return [(prob, "cs", 5, None), (prob, "cs-signsym", 5, None)]
    if table == "table5":
        prob = gen_reznick_sparse_chain(5, 2)
        return [(prob, "cs", 6, None), (prob, "cs-signsym", 6, None)]
    if table == "table7":
        prob = gen_rosenbrock_ratio(10)
        return [(prob, "cs-signsym", 2, None), (prob, "epigraph", 4, None)]
    if table == "table8":
        prob = gen_overlap_chain(8, 1)
        return [
            (prob, "epigraph", 3, None),
            (prob, "cs", 3, None),
            (prob, "cs-signsym", 3, None),
        ]
    raise BuildError(f"unknown table {table!r}")


def cmd_bench(args):
    if args.table not in BENCH_TABLES:
        print(
            f"unknown table {args.table!r}; choose from "
            f"{', '.join(sorted(BENCH_TABLES))}",
            file=sys.stderr,
        )
        return EXIT_BUILD
    rows = []
    for prob, method, k, order in _bench_rows(args.table):
        res = solve_relaxation(prob, method, k, ratio_order=order)
        rows.append(
            (
                prob.name,
                method if order is None else f"{method}[{','.join(str(i + 1) for i in order)}]",
                k,
                res.bound,
                res.report.status,
                (res.build_ms + res.solve_ms) / 1000.0,
            )
        )
    if args.format == "csv":
        print("problem,method,k,bound,status,time_s")
        for name, method, k, bound, status, secs in rows:
            print(f"{name},{method},{k},{bound:.6f},{status},{secs:.2f}")
    else:
        print(f"# {BENCH_TABLES[args.table]}")
        print("| problem | method | k | bound | status | time (s) |")
        print("|---|---|---|---|---|---|")
        for name, method, k, bound, status, secs in rows:
            print(f"| {name} | {method} | {k} | {bound:.6f} | {status} | {secs:.2f} |")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="ratsos",
        description=(
            "Certified lower bounds for sums of rational functions over "
            "compact semialgebraic sets via moment relaxations."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a problem file")
    ps.add_argument("file")
    ps.add_argument("--method", choices=METHODS, default="dense")
    ps.add_argument("--order", type=int, default=None, help="relaxation order")
    ps.add_argument("--orders", default=None, help="order range K1..K2")
    ps.add_argument(
        "--ratio-order", dest="ratio_order", default=None,
        help="comma-separated 1-based permutation of the ratios",
    )
    ps.add_argument(
        "--solver", choices=("internal", "sdpa-export"), default="internal"
    )
    ps.add_argument("--tol", type=float, default=1e-8)
    ps.add_argument(
        "--maximize", action="store_true",
        help="treat the file's objective as a maximization",
    )
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_solve)

    pa = sub.add_parser("analyze", help="report symmetry and clique structure")
    pa.add_argument("file")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("gen", help="generate a benchmark-family instance")
    pg.add_argument("family", help=f"one of: {', '.join(sorted(FAMILIES))}")
    pg.add_argument("--M", type=int, default=None)
    pg.add_argument("--d", type=int, default=None)
    pg.add_argument("--n", type=int, default=None)
    pg.add_argument("--N", type=int, default=None)
    pg.add_argument("--s", type=int, default=None)
    pg.add_argument("--xi", type=float, default=None)
    pg.add_argument("--seed", type=int, default=None)
    pg.add_argument(
        "--balls", action="store_true",
        help="append derived per-clique ball constraints",
    )
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=cmd_gen)

    pb = sub.add_parser("bench", help="run a desk-scale benchmark schedule")
    pb.add_argument("table", help=f"one of: {', '.join(sorted(BENCH_TABLES))}")
    pb.add_argument("--format", choices=("md", "csv"), default="md")
    pb.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BuildError as exc:
        print(f"build error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except SolveError as exc:
        print(f"solve error: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    except RatsosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
