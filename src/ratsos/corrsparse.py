"""Clique structure validation for ratio-indexed correlative sparsity.

Each ratio owns a variable clique; constraints are assigned to the first
clique containing their variables, and the running intersection property
(RIP) is verified on the given order with a maximum-cardinality-search
reordering attempted before reporting a violation.  The variables each
overlapping pair of cliques shares drive the linking equalities of the
sparse relaxations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CliqueStructureError
from .poly import Polynomial
from .problem import Constraint, SrfoProblem, diag_quadratic_pattern, variable_bounds


@dataclass(frozen=True)
class CliqueStructure:
    cliques: tuple
    assign: tuple            # J_i: constraint indices owned by clique i
    shared: dict             # (i, j) with i < j, overlapping only -> shared variable tuple
    rip_order: tuple         # clique order certifying RIP (identity if given order works)
    given_order_witness: tuple | None = None  # (clique, overlap) when the given order fails


def _rip_holds(cliques, order):
    sets = [set(cliques[i]) for i in order]
    for pos in range(1, len(sets)):
        earlier = set().union(*sets[:pos])
        overlap = sets[pos] & earlier
        if not overlap:
            continue
        if not any(overlap <= sets[j] for j in range(pos)):
            return False, (order[pos], sorted(overlap))
    return True, None


def _mcs_order(cliques):
    """Greedy max-overlap ordering (maximum cardinality search on cliques)."""
    n = len(cliques)
    remaining = set(range(1, n))
    order = [0]
    covered = set(cliques[0])
    while remaining:
        best = max(
            sorted(remaining),
            key=lambda i: (len(set(cliques[i]) & covered), -i),
        )
        order.append(best)
        covered |= set(cliques[best])
        remaining.discard(best)
    return order


def build_cliques(prob):
    """Validate (or derive) the clique structure of a problem.

    Cliques default to the variables of each ratio when the problem does not
    supply them.  Raises with a witness on coverage failures, on a ratio not
    contained in its clique, and on RIP violations that survive reordering.
    """
    n = prob.nvars
    if prob.cliques is not None:
        cliques = [tuple(sorted(c)) for c in prob.cliques]
    else:
        cliques = [
            tuple(sorted(p.vars_used() | q.vars_used()))
            for p, q in prob.ratios
        ]
    covered = set().union(*(set(c) for c in cliques)) if cliques else set()
    if covered != set(range(n)):
        missing = sorted(set(range(n)) - covered)
        raise CliqueStructureError(
            f"variables {[v + 1 for v in missing]} are covered by no clique"
        )
    for i, ((p, q), cl) in enumerate(zip(prob.ratios, cliques)):
        used = p.vars_used() | q.vars_used()
        if not used <= set(cl):
            extra = sorted(used - set(cl))
            raise CliqueStructureError(
                f"ratio {i + 1} uses variables {[v + 1 for v in extra]} "
                f"outside its clique"
            )

    assign = [[] for _ in cliques]
    for j, con in enumerate(prob.constraints):
        used = con.poly.vars_used()
        home = next(
            (i for i, cl in enumerate(cliques) if used <= set(cl)), None
        )
        if home is None:
            raise CliqueStructureError(
                f"constraint {j + 1} on variables "
                f"{[v + 1 for v in sorted(used)]} fits in no clique"
            )
        assign[home].append(j)

    N = len(cliques)
    shared = {}
    for i in range(N):
        for j in range(i + 1, N):
            common = tuple(sorted(set(cliques[i]) & set(cliques[j])))
            if common:
                shared[(i, j)] = common

    holds, witness = _rip_holds(cliques, list(range(N)))
    rip_order = tuple(range(N))
    if not holds:
        candidate = _mcs_order(cliques)
        if _rip_holds(cliques, candidate)[0]:
            rip_order = tuple(candidate)
        else:
            bad, overlap = witness
            raise CliqueStructureError(
                f"running intersection property fails at clique {bad + 1}: "
                f"overlap {[v + 1 for v in overlap]} with earlier cliques "
                f"is contained in none of them (no repair order found)"
            )

    return CliqueStructure(
        cliques=tuple(cliques),
        assign=tuple(tuple(a) for a in assign),
        shared=shared,
        rip_order=rip_order,
        given_order_witness=(
            None if witness is None else (witness[0], tuple(witness[1]))
        ),
    )


def _has_ball(prob, cs, i):
    """True if some assigned inequality is M - sum of squares over clique i."""
    want = set(cs.cliques[i])
    for j in cs.assign[i]:
        con = prob.constraints[j]
        if con.equality:
            continue
        pat = diag_quadratic_pattern(con.poly)
        if pat is None:
            continue
        c0, coefs = pat
        if set(coefs) == want and all(a == 1.0 for a in coefs.values()):
            return True
    return False


def _auto_radius(prob, clique):
    """Bound on sum of squares over a clique derived from the constraints."""
    want = set(clique)
    best = None
    for con in prob.constraints:
        pat = diag_quadratic_pattern(con.poly)
        if pat is None:
            continue
        c0, coefs = pat
        if want <= set(coefs):
            cand = c0 / min(coefs[v] for v in want)
            best = cand if best is None else min(best, cand)
    if best is not None:
        return best
    bounds = variable_bounds(prob)
    if all(bounds[v] is not None for v in clique):
        return sum(bounds[v] for v in clique)
    return None


def ensure_ball_constraints(prob, cs):
    """Append per-clique ball constraints where missing.

    Each radius is derived from the existing ball, sphere or box
    constraints, and is positive.  Returns a new problem; re-run
    build_cliques on it to refresh the assignment.
    """
    new_cons = list(prob.constraints)
    for i, clique in enumerate(cs.cliques):
        if _has_ball(prob, cs, i):
            continue
        M = _auto_radius(prob, clique)
        if M is None:
            raise CliqueStructureError(f"no bound derivable for clique {i + 1}; "
                                       "add a ball constraint on its variables")
        ball = Polynomial.constant(prob.nvars, M)
        for v in clique:
            ball = ball - Polynomial.variable(prob.nvars, v, 2)
        new_cons.append(Constraint(ball, False))
    if len(new_cons) == len(prob.constraints):
        return prob
    return SrfoProblem(
        nvars=prob.nvars,
        ratios=list(prob.ratios),
        constraints=new_cons,
        cliques=list(prob.cliques) if prob.cliques is not None else None,
        name=prob.name,
        var_names=prob.var_names,
        maximize=prob.maximize,
        known_optimum=prob.known_optimum,
    )
