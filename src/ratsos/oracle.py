"""Feasible-point search giving an independent bound on the true optimum.

A full grid is used up to four variables, random multistart above that;
either way the best candidate is polished with projected coordinate descent.
Sphere-type equality constraints are handled by radial projection, which
covers every chained benchmark family.  The returned value is attained at a
feasible point, so for a minimization it always upper-bounds the optimum
(lower-bounds it for maximize instances).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSampleError
from .problem import diag_quadratic_pattern, variable_scales

FEAS_TOL = 1e-8


@dataclass
class GridOracleResult:
    best_value: float
    best_point: np.ndarray
    samples: int


def _sphere_constraints(prob):
    """Equality constraints of the form sum a_v x_v^2 = c0 (a_v > 0)."""
    spheres = []
    for con in prob.constraints:
        if not con.equality:
            continue
        pat = diag_quadratic_pattern(con.poly)
        if pat is None:
            return None
        spheres.append(pat)
    return spheres


def _project(points, spheres, rounds=8):
    """Radial projection onto each sphere in turn, repeated for overlaps."""
    pts = points.copy()
    for _ in range(rounds if len(spheres) > 1 else 1):
        for c0, coefs in spheres:
            idx = np.array(sorted(coefs))
            w = np.array([coefs[v] for v in sorted(coefs)])
            sub = pts[:, idx]
            norm2 = (sub * sub * w).sum(axis=1)
            degenerate = norm2 <= 1e-300
            if degenerate.any():
                fill = np.sqrt(c0 / w.sum())
                pts[np.ix_(degenerate, idx)] = fill
                sub = pts[:, idx]
                norm2 = (sub * sub * w).sum(axis=1)
            factor = np.sqrt(c0 / norm2)
            pts[:, idx] = sub * factor[:, None]
    return pts


def _feasible_mask(prob, pts):
    mask = np.ones(pts.shape[0], dtype=bool)
    for con in prob.constraints:
        vals = con.poly.evaluate_many(pts)
        scale = 1.0 + max(abs(c) for c in con.poly.terms.values() or [0.0])
        if con.equality:
            mask &= np.abs(vals) <= FEAS_TOL * scale
        else:
            mask &= vals >= -FEAS_TOL * scale
    return mask


def _objective(prob, pts):
    total = np.zeros(pts.shape[0])
    bad = np.zeros(pts.shape[0], dtype=bool)
    for p, q in prob.ratios:
        qv = q.evaluate_many(pts)
        bad |= np.abs(qv) < 1e-12
        qv = np.where(np.abs(qv) < 1e-12, 1.0, qv)
        total += p.evaluate_many(pts) / qv
    total[bad] = np.inf
    return total


def _pick_best(prob, pts, vals):
    score = -vals if prob.maximize else vals
    finite = np.isfinite(score)
    if not finite.any():
        return None
    best_score = score[finite].min()
    near = np.where(finite & (score <= best_score + 1e-15))[0]
    # deterministic tie-break: lexicographically smallest point
    order = np.lexsort(pts[near].T[::-1])
    return near[order[0]]


def grid_oracle(prob, resolution=21, refine_iters=200, seed=0):
    """Best feasible objective value found by grid/multistart plus descent."""
    n = prob.nvars
    radii = variable_scales(prob)
    spheres = _sphere_constraints(prob)
    samples = 0

    if n <= 4:
        axes = [np.linspace(-r, r, resolution) for r in radii]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        candidates = grid
    else:
        rng = np.random.default_rng(seed)
        count = max(4000, 400 * n)
        candidates = rng.uniform(-1, 1, size=(count, n)) * radii
    # with a non-sphere equality (spheres is None) the candidates stay
    # unprojected and the feasibility mask below decides what survives
    if spheres:
        candidates = _project(candidates, spheres)
    samples += candidates.shape[0]
    mask = _feasible_mask(prob, candidates)
    pts = candidates[mask]
    if pts.shape[0] == 0:
        raise InfeasibleSampleError(
            f"no feasible sample among {samples} candidates of {prob.name or 'problem'}"
        )
    vals = _objective(prob, pts)
    best_idx = _pick_best(prob, pts, vals)
    if best_idx is None:
        raise InfeasibleSampleError("objective undefined on all feasible samples")

    # polish the strongest starts; coupled objectives need several because
    # coordinate descent can stall on ridges
    sign = -1.0 if prob.maximize else 1.0
    nstarts = 1 if n <= 4 else 6
    order = np.argsort(sign * vals, kind="stable")[:nstarts]
    step = float(2 * radii.max() / max(resolution - 1, 1))
    best = pts[best_idx].copy()
    best_val = vals[best_idx]
    for start in order:
        pt, val, extra = _coordinate_descent(
            prob, pts[start].copy(), vals[start], step, refine_iters,
            radii, spheres or [],
        )
        samples += extra
        if sign * val < sign * best_val - 1e-15:
            best, best_val = pt, val
    return GridOracleResult(float(best_val), best, samples)


def _coordinate_descent(prob, point, value, step, iters, radii, spheres):
    sign = -1.0 if prob.maximize else 1.0
    evals = 0
    for _ in range(iters):
        improved = False
        for v in range(prob.nvars):
            trials = []
            for delta in (step, -step):
                cand = point.copy()
                cand[v] = np.clip(cand[v] + delta, -radii[v], radii[v])
                trials.append(cand)
            batch = np.asarray(trials)
            if spheres:
                batch = _project(batch, spheres)
            ok = _feasible_mask(prob, batch)
            if not ok.any():
                continue
            vals = _objective(prob, batch[ok])
            evals += batch.shape[0]
            k = int(np.argmin(sign * vals))
            if sign * vals[k] < sign * value - 1e-15:
                point = batch[ok][k]
                value = vals[k]
                improved = True
        if not improved:
            step *= 0.5
            if step < 1e-9:
                break
    return point, value, evals
