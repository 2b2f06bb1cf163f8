"""Compile sum-of-ratios instances into block moment SDPs.

The four ratio methods give every ratio its own pseudo-moment vector,
normalized by L_i(q_i) = 1, and differ on two independent axes:

  split  one measure per clique, on the clique's variables and constraints
         and linked to the overlapping cliques on their shared variables,
         or one measure per ratio on all variables, linked to the first
  mask   the sign-symmetry group of each measure, which splits its blocks
         into parity classes and keeps only moments in its closure: the
         trivial group, one group per measure, or the global group

  dense       no split, trivial group
  signsym     no split, per-measure group
  cs          split, trivial group
  cs-signsym  split, global group

The epigraph baseline is the same two axes applied to the lifted problem
min sum_i c_i s.t. p_i - c_i q_i = 0: one measure per clique extended by
its value c_i under `cs-signsym`, or without cliques the one ratio
(sum_i c_i)/1 under `signsym`.

The moment form is assembled once per method; the solver's dual value
certifies the SOS side, so the dual programs are never built separately.
Equality constraints become per-monomial localizing equalities (one row per
distinct monomial sum), and variables are rescaled so that derivable bounds
put every feasible point in the unit box; both the feasible set mapping and
the bound are unchanged by that substitution.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corrsparse import build_cliques
from .errors import BuildError, OrderTooSmallError, SolveError
from .poly import Polynomial, basis, grlex_key, mono_mul
from .problem import (
    Constraint,
    SrfoProblem,
    diag_quadratic_pattern,
    variable_scales,
)
from .sdp import SolveReport, psd_block, solve_internal, to_standard_form
from .signsym import (
    SignSymmetryGroup,
    block_partition,
    global_support,
    in_closure,
    sign_symmetries,
    support_sets,
)

# ratio method -> (one measure per clique, sign-symmetry group)
_AXES = {
    "dense": (False, None),
    "signsym": (False, "measure"),
    "cs": (True, None),
    "cs-signsym": (True, "global"),
}
METHODS = (*_AXES, "epigraph")


class QuotientReducer:
    """Rewrite moments modulo diagonal-quadric equality constraints.

    A constraint c0 - sum_v a_v x_v^2 = 0 lets the squared pivot variable
    (the largest index in the constraint) be substituted away:
    x_p^2 = c0/a_p - sum (a_v/a_p) x_v^2.  Measures supported on the variety
    satisfy the induced moment identities exactly, and each substitution is
    one of the localizing equality rows, so eliminating the reducible
    moments leaves the relaxation value unchanged while restoring a
    strictly feasible moment block (the full basis is linearly dependent on
    the variety, which otherwise kills the interior).
    """

    def __init__(self, nvars):
        self.nvars = nvars
        self.relations = {}
        self._pivots_desc = []
        self._memo = {}

    def try_add(self, poly):
        """Absorb a diagonal-quadric equality; None if unusable or cyclic."""
        pat = diag_quadratic_pattern(poly)
        if pat is None:
            return None
        c0, coefs = pat
        pivot = None
        for v in sorted(coefs, reverse=True):
            if v not in self.relations:
                pivot = v
                break
        if pivot is None:
            return None
        ap = coefs[pivot]
        terms = [((0,) * self.nvars, c0 / ap)]
        for v, a in coefs.items():
            if v != pivot:
                mono = tuple(2 if u == v else 0 for u in range(self.nvars))
                terms.append((mono, -a / ap))
        self.relations[pivot] = tuple(terms)
        if self._cyclic():
            del self.relations[pivot]
            return None
        self._pivots_desc = sorted(self.relations, reverse=True)
        self._memo.clear()
        return pivot

    def _cyclic(self):
        deps = {
            p: {v for mono, _ in rel for v, e in enumerate(mono)
                if e and v in self.relations}
            for p, rel in self.relations.items()
        }
        seen = {}

        def visit(p):
            state = seen.get(p)
            if state == 1:
                return True
            if state == 2:
                return False
            seen[p] = 1
            if any(visit(q) for q in deps[p]):
                return True
            seen[p] = 2
            return False

        return any(visit(p) for p in deps)

    def is_kept(self, mono):
        return all(mono[p] < 2 for p in self.relations)

    def reduce(self, mono):
        """Expansion of a moment into kept-basis moments."""
        if not self.relations:
            return ((mono, 1.0),)
        hit = self._memo.get(mono)
        if hit is not None:
            return hit
        pivot = next((p for p in self._pivots_desc if mono[p] >= 2), None)
        if pivot is None:
            out = ((mono, 1.0),)
        else:
            base = tuple(
                e - 2 if v == pivot else e for v, e in enumerate(mono)
            )
            acc = {}
            for rm, rc in self.relations[pivot]:
                for m2, c2 in self.reduce(mono_mul(base, rm)):
                    s = acc.get(m2, 0.0) + rc * c2
                    if s == 0.0:
                        acc.pop(m2, None)
                    else:
                        acc[m2] = s
            out = tuple(sorted(acc.items(), key=lambda kv: grlex_key(kv[0])))
        self._memo[mono] = out
        return out


@dataclass
class Measure:
    """One ratio's pseudo-moment vector and what the build decided for it.

    `p`, `q` and `cons` are in the scaled variables, and `cons` leaves out
    the equalities that `reducer` absorbed.  `group` is the measure's
    sign-symmetry group, of rank 0 (the trivial group) for an unmasked
    method.  `monomials` are the kept moments of degree at most 2k: those
    in the closure of `group` that `reducer` keeps, numbered from `offset`
    in the decision vector; `index` maps each to its column.
    """

    label: str
    vars: tuple
    p: Polynomial
    q: Polynomial
    cons: list            # (g_scaled, equality, name)
    group: SignSymmetryGroup
    reducer: QuotientReducer
    monomials: tuple = ()
    offset: int = 0
    index: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.monomials)

    def keeps(self, mono):
        return in_closure(self.group, mono) and self.reducer.is_kept(mono)


class RelaxationSdp:
    """Block SDP produced by a builder, plus its measures to read moments back."""

    def __init__(self, method, order, problem, var_scale):
        self.method = method
        self.order = order
        self.problem = problem
        self.var_scale = np.asarray(var_scale, dtype=float)
        self.measures = []
        self.blocks = []
        self.block_measure = []
        self.block_kind = []
        self.eq_rows = []
        self.objective = None
        self.num_decision = 0

    def add_block(self, block, measure, kind):
        self.blocks.append(block)
        self.block_measure.append(measure)
        self.block_kind.append(kind)

    def add_eq(self, cols, vals, rhs):
        self.eq_rows.append((tuple(cols), tuple(vals), float(rhs)))

    def block_size_histogram(self):
        return dict(sorted(Counter(b.size for b in self.blocks).items()))

    def moment_matrix(self, report, m):
        """Masked moment matrix of measure m at the relaxation's order."""
        mb = basis(len(self.var_scale), m.vars, self.order)
        M = np.zeros((len(mb), len(mb)))
        y = report.y
        for a, beta in enumerate(mb):
            for b in range(a, len(mb)):
                val = 0.0
                known = True
                for m2, c2 in m.reducer.reduce(mono_mul(beta, mb[b])):
                    gid = m.index.get(m2)
                    if gid is None:
                        known = False
                        break
                    val += c2 * y[gid]
                if known:
                    M[a, b] = M[b, a] = val
        return M


def _half_deg(poly):
    return (poly.degree() + 1) // 2


def min_order(prob, method="dense"):
    """Smallest admissible relaxation order for a method on a problem."""
    if method == "epigraph":
        prob = _lift(prob)[0]
    degs = []
    for p, q in prob.ratios:
        degs.append(_half_deg(p))
        degs.append(_half_deg(q))
    for con in prob.constraints:
        degs.append(_half_deg(con.poly))
    return max(degs) if degs else 1


def _scaled_measure(label, vars_, p, q, cons, group, tau):
    """One ratio measure in the scaled variables, its quotient absorbed."""
    p = p.rescale_vars(tau)
    q = q.rescale_vars(tau)
    # absorb diagonal-quadric equalities into the measure's quotient
    # basis; anything else stays as localizing equality rows
    reducer = QuotientReducer(len(tau))
    kept_cons = []
    for g, e, nm in cons:
        g = g.rescale_vars(tau)
        if e and reducer.try_add(g) is not None:
            continue
        kept_cons.append((g, e, nm))
    # p/q is invariant under joint positive scaling: dividing both by q
    # rewritten in the quotient, at the box centre (q at a point of the
    # absorbed equalities), keeps the measure's mass near one; the terms go
    # in graded-lex order so the bits do not hang on q's term order
    qbar = Polynomial(len(tau), [(m2, cq * c2) for mono, cq in q.sorted_terms()
                                 for m2, c2 in reducer.reduce(mono)])
    qa = qbar.evaluate(np.full(len(tau), 0.5))
    if abs(qa) > 1e-8 * max(abs(cq) for cq in q.terms.values()):
        kappa = 1.0 / abs(qa)
        p = p * kappa
        q = q * kappa
    return Measure(label, vars_, p, q, kept_cons, group, reducer)


def _block_basis(m, nvars, order):
    """Block index basis: quotient representatives only.

    Dropping reducible monomials is an exact congruence (the full matrix is
    T M~ T' with T of full column rank) and restores a strictly feasible
    moment block, which the full basis never has on an equality variety.
    """
    return [mono for mono in basis(nvars, m.vars, order) if m.reducer.is_kept(mono)]


def _emit_measure_blocks(rsdp, mi, k, nvars):
    """Moment block, localizing blocks and localizing equality rows of
    measure mi; k is at least every constraint's half-degree (`min_order`)."""
    m = rsdp.measures[mi]
    one = (((0,) * nvars, 1.0),)
    _emit_localizing(rsdp, mi, one, _block_basis(m, nvars, k), "moment", "moment")
    for g, is_eq, gname in m.cons:
        dg = _half_deg(g)
        terms = g.sorted_terms()
        if not is_eq:
            _emit_localizing(rsdp, mi, terms, _block_basis(m, nvars, k - dg),
                             f"loc[{gname}]", "localizing")
            continue
        for sigma in _block_basis(m, nvars, 2 * (k - dg)):
            if not in_closure(m.group, sigma):
                continue
            cols, vals = _riesz_cols(m, terms, sigma)
            if any(v != 0.0 for v in vals):
                rsdp.add_eq(cols, vals, 0.0)


def _emit_localizing(rsdp, mi, terms, sub, name, kind):
    """Localizing matrix of g (its sorted terms) on basis `sub` for measure
    mi, one PSD block per sign-symmetry class; g = 1 gives the moment
    matrix."""
    m = rsdp.measures[mi]
    index = m.index
    classes = block_partition(m.group, sub)
    # a zero alpha (the moment matrix's one term) shifts nothing
    terms = [(alpha if any(alpha) else None, ca) for alpha, ca in terms]
    reduce = m.reducer.reduce
    for ci, cls in enumerate(classes):
        rows, cols, vids, coefs = [], [], [], []
        monos = [sub[i] for i in cls]
        for a, beta in enumerate(monos):
            for b in range(a, len(monos)):
                base = mono_mul(beta, monos[b])
                for alpha, ca in terms:
                    mono = base if alpha is None else mono_mul(alpha, base)
                    for m2, c2 in reduce(mono):
                        rows.append(a)
                        cols.append(b)
                        vids.append(index[m2])
                        coefs.append(ca * c2)
        rsdp.add_block(
            psd_block(f"{m.label}:{name}:{ci}", len(cls), rows, cols, vids, coefs),
            mi,
            kind,
        )


def _riesz_cols(m, terms, alpha):
    """Columns and values of L_y(x^alpha * f) in measure m, for f given by
    its sorted terms."""
    acc = {}
    for delta, cf in terms:
        for m2, c2 in m.reducer.reduce(mono_mul(alpha, delta)):
            gid = m.index[m2]
            acc[gid] = acc.get(gid, 0.0) + cf * c2
    cols = sorted(acc)
    return cols, [acc[gid] for gid in cols]


def _ratio_relaxation(prob, method, k, ratio_order):
    """One measure per ratio; `_AXES[method]` gives its split and its mask.

    The split picks one clique table: each measure's variables and
    constraints, and which measures are linked on which variables by rows
    L_{y_i}(x^a q_i) = L_{y_j}(x^a q_j).  With it the table is that of
    `build_cliques`; without it every measure takes all variables and
    constraints and is linked to the first.  Every measure is normalized,
    L_{y_i}(q_i) = 1, so a = 0 is dropped from the linking rows, where it
    would repeat two normalization rows.  The mask decides each measure's
    group, and a linking row is kept only for a in the closure of the group
    of i.
    """
    split, mask = _AXES[method]
    n = prob.nvars
    N = prob.num_ratios
    order = list(ratio_order) if ratio_order is not None else list(range(N))
    if sorted(order) != list(range(N)):
        raise BuildError(f"ratio_order {order} is not a permutation of 0..{N - 1}")
    d_min = min_order(prob)
    if k < d_min:
        raise OrderTooSmallError(k, d_min)
    if split:
        cs = build_cliques(prob)
        cliques, assign, pairs = cs.cliques, cs.assign, cs.shared.items()
    else:
        every = tuple(range(n))
        cliques = [every] * N
        assign = [range(len(prob.constraints))] * N
        pairs = [((i, 0), every) for i in range(1, N)]
    if mask == "measure":
        supports = support_sets(prob, ratio_order=order)
        groups = [sign_symmetries(s, n) for s in supports]
    elif mask == "global":
        groups = [sign_symmetries(global_support(prob), n)] * N
    else:
        groups = [SignSymmetryGroup(n)] * N

    tau = variable_scales(prob)
    rsdp = RelaxationSdp(method, k, prob, tau)
    measures = rsdp.measures

    sign = -1.0 if prob.maximize else 1.0
    cons = [(c.poly, c.equality, f"g{j + 1}") for j, c in enumerate(prob.constraints)]
    for i, r in enumerate(order):
        p, q = prob.ratios[r]
        own = [cons[j] for j in assign[i]]
        m = _scaled_measure(f"m{i + 1}", cliques[i], sign * p, q, own, groups[i], tau)
        m.monomials = tuple(a for a in basis(n, m.vars, 2 * k) if m.keeps(a))
        m.offset = rsdp.num_decision
        m.index = {a: m.offset + j for j, a in enumerate(m.monomials)}
        rsdp.num_decision += len(m)
        measures.append(m)

    zero = (0,) * n
    rsdp.objective = np.zeros(rsdp.num_decision)
    for m in measures:
        cols, vals = _riesz_cols(m, m.p.sorted_terms(), zero)
        rsdp.objective[cols] = vals

    for mi in range(N):
        _emit_measure_blocks(rsdp, mi, k, n)

    for m in measures:
        cols, vals = _riesz_cols(m, m.q.sorted_terms(), zero)
        rsdp.add_eq(cols, vals, 1.0)

    for (i, j), shared in pairs:
        mi, mj = measures[i], measures[j]
        trunc = 2 * k - max(mi.q.degree(), mj.q.degree())
        ti, tj = mi.q.sorted_terms(), mj.q.sorted_terms()
        # graded-lex order puts a = 0 first
        for alpha in basis(n, shared, trunc)[1:]:
            if not in_closure(mi.group, alpha):
                continue
            ci, vi = _riesz_cols(mi, ti, alpha)
            cj, vj = _riesz_cols(mj, tj, alpha)
            rsdp.add_eq(ci + cj, vi + [-v for v in vj], 0.0)
    return rsdp


def _lift(prob):
    """The lifted problem min sum_i c_i s.t. sign*p_i - c_i q_i = 0, and the
    ratio method that relaxes it.

    Each value c_i is the ratio c_i/1 on the clique of ratio i extended by
    c_i, relaxed by `cs-signsym`; without cliques the one ratio
    (sum_i c_i)/1 is relaxed by `signsym`.
    """
    n, N = prob.nvars, prob.num_ratios
    sign = -1.0 if prob.maximize else 1.0

    def lift(poly):
        return Polynomial(n + N, {m + (0,) * N: c for m, c in poly.terms.items()})

    values = [Polynomial.variable(n + N, n + i) for i in range(N)]
    one = Polynomial.constant(n + N, 1.0)
    cons = [Constraint(lift(c.poly), c.equality) for c in prob.constraints]
    cons += [Constraint(lift(sign * p) - c * lift(q), True)
             for c, (p, q) in zip(values, prob.ratios)]
    if prob.cliques is None:
        return SrfoProblem(n + N, [(sum(values), one)], cons), "signsym"
    cliques = [cl + (n + i,) for i, cl in enumerate(build_cliques(prob).cliques)]
    lifted = SrfoProblem(n + N, [(c, one) for c in values], cons, cliques)
    return lifted, "cs-signsym"


def build(prob, method, k, ratio_order=None):
    """Moment relaxation of order k by one of METHODS.

    `ratio_order` (a permutation of the ratio indices) orders the measures of
    `dense` and `signsym`, the methods without a clique split.  `epigraph`
    relaxes the lifted problem of `_lift` by its ratio method.
    """
    if method not in METHODS:
        raise BuildError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    if ratio_order is not None and method not in ("dense", "signsym"):
        raise BuildError(f"a ratio order applies to dense and signsym, not {method}")
    if method != "epigraph":
        return _ratio_relaxation(prob, method, k, ratio_order)
    rsdp = _ratio_relaxation(*_lift(prob), k, None)
    rsdp.method, rsdp.problem = method, prob
    return rsdp


# ---------------------------------------------------------------------------
# solution handling


def reported_bound(report, maximize=False):
    """Conservative bound: the SOS value minus any positive dual excess.

    Both solver values estimate the relaxation optimum; near-degenerate
    instances can leave the dual with a small infeasibility bias above the
    primal, so the slack max(0, dual - primal) is subtracted, which keeps
    the smaller of the two estimates.
    """
    slack = max(0.0, report.dual - report.primal)
    bound = report.dual - slack
    return -bound if maximize else bound


def dirac_decision_vector(rsdp, point):
    """Decision vector of the point mass at a feasible point.

    Each ratio measure is the Dirac measure scaled so L_y(q_i) = 1; the
    epigraph relaxes the lifted problem, so the point gets the values
    c_i = sign*p_i/q_i appended.
    """
    point = np.asarray(point, dtype=float)
    prob = rsdp.problem
    if rsdp.method == "epigraph":
        sign = -1.0 if prob.maximize else 1.0
        point = np.concatenate(
            [point, [sign * p.evaluate(point) / q.evaluate(point) for p, q in prob.ratios]]
        )
    y = np.zeros(rsdp.num_decision)
    scaled = point / rsdp.var_scale
    for m in rsdp.measures:
        t = 1.0 / m.q.evaluate(scaled)
        for mono, gid in m.index.items():
            y[gid] = t * float(np.prod([x ** e for x, e in zip(scaled, mono)]))
    return y


# singular values below RANK_TOL times the largest count as zero in the
# flatness test's ranks
RANK_TOL = 1e-6


def _numerical_rank(M):
    if M.size == 0:
        return 0
    svals = np.linalg.svd(M, compute_uv=False)
    top = svals.max()
    if top <= 0.0:
        return 0
    return int((svals > RANK_TOL * top).sum())


def flatness_certificate(rsdp, report):
    """Flat-truncation check on the first measure's moment matrix.

    Requires the numerical rank of M_s(y_1) to stabilize across the last
    truncations: rank M_k = rank M_{k-d} = rank M_{k-d-1} (d the largest
    constraint half-degree; the lowest pair is skipped when k-d-1 < 0).
    The one-pair equality alone admits false positives when a sub-optimal
    pseudo-moment vector is itself atomic, so the certificate insists the
    rank has settled rather than merely repeated once.  Only meaningful for
    dense and signsym relaxations.
    """
    if rsdp.method not in ("dense", "signsym"):
        raise BuildError("flatness check applies to dense/signsym relaxations")
    if report.y is None:
        raise SolveError("report carries no moment vector")
    d = max(
        [1]
        + [_half_deg(c.poly) for c in rsdp.problem.constraints]
    )
    k = rsdp.order
    orders = [k, k - d]
    if k - d - 1 >= 0:
        orders.append(k - d - 1)
    # the graded basis of a lower order is a prefix of order k's, so each
    # M_s is a leading principal block of M_k
    m = rsdp.measures[0]
    M = rsdp.moment_matrix(report, m)
    sizes = [len(basis(len(rsdp.var_scale), m.vars, s)) for s in orders]
    ranks = [_numerical_rank(M[:n, :n]) for n in sizes]
    return all(r == ranks[0] for r in ranks)


@dataclass
class RunResult:
    problem: SrfoProblem
    method: str
    order: int
    rsdp: RelaxationSdp
    report: SolveReport
    bound: float
    primal: float
    dual: float
    certified: bool
    build_ms: float
    solve_ms: float


def solve_relaxation(
    prob,
    method,
    k,
    ratio_order=None,
    tol=1e-8,
    max_iter=200,
):
    """Build, solve and package one relaxation; the pipeline used by the CLI.

    One build and one solve: the reported values are those of the solver's
    best iterate, whatever its status.
    """
    t0 = time.perf_counter()
    rsdp = build(prob, method, k, ratio_order=ratio_order)
    sf = to_standard_form(rsdp)
    build_ms = 1000.0 * (time.perf_counter() - t0)
    t1 = time.perf_counter()
    report = solve_internal(sf, tol=tol, max_iter=max_iter)
    solve_ms = 1000.0 * (time.perf_counter() - t1)
    certified = False
    if report.ok() and method in ("dense", "signsym"):
        certified = bool(flatness_certificate(rsdp, report))
    # the solver minimizes; the values go back to the objective's sense
    sign = -1.0 if prob.maximize else 1.0
    return RunResult(
        problem=prob,
        method=method,
        order=k,
        rsdp=rsdp,
        report=report,
        bound=reported_bound(report, prob.maximize) if report.ok() else float("nan"),
        primal=sign * report.primal,
        dual=sign * report.dual,
        certified=certified,
        build_ms=build_ms,
        solve_ms=solve_ms,
    )
