"""Nelder-Mead simplex minimizer.

Written in-house because the fitting pipeline needs tight control over
termination and deterministic behavior across runs. A fit converges on
either of two tests against one ``tol``: the simplex diameter, in the
units of the parameters, falls below it, or the spread of the vertices'
objective values falls to it relative to the best value, a unitless
ratio. Standard coefficients: reflection 1, expansion 2, contraction
0.5, shrink 0.5. ``bisect_failure`` is the one bisection every lifetime
search runs: the point where a monotone failure test first turns true.
"""

import numpy as np

REFLECT = 1.0
EXPAND = 2.0
CONTRACT = 0.5
SHRINK = 0.5


class NanObjective(RuntimeError):
    """Raised when the objective returns NaN during optimization."""


def _eval(objective, x):
    f = float(objective(x))
    if np.isnan(f):
        raise NanObjective(f"objective returned NaN at x={x!r}")
    return f


def nelder_mead(objective, x0, tol=1e-8, max_iter=1000, step=0.05):
    """Minimize objective from x0.

    The initial simplex is x0 and, for each coordinate i, x0 with x0[i]
    stepped by ``step * |x0[i]|``, or by ``step`` where x0[i] is 0; the
    default is a 5% step. The best vertex is only ever replaced by a
    better point, so f_best never exceeds f(x0). Returns (x_best, f_best,
    iterations, converged). Convergence means that, within max_iter
    iterations, either the simplex diameter (max vertex distance from the
    best vertex, inf-norm, in parameter units) fell below tol, or the
    vertices' objective values agreed to within tol relative to the best,
    ``f_worst - f_best <= tol * |f_best|``. While the best value is 0, the
    value test fires only when every vertex's value is 0.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    initial_step = np.where(x0 != 0.0, step * np.abs(x0), step)

    verts = np.tile(x0, (n + 1, 1))
    for i in range(n):
        verts[i + 1, i] += initial_step[i]
    fvals = np.array([_eval(objective, v) for v in verts])

    iterations = 0
    converged = False
    while iterations < max_iter:
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        diameter = np.max(np.abs(verts[1:] - verts[0]))
        if diameter < tol or fvals[-1] - fvals[0] <= tol * abs(fvals[0]):
            converged = True
            break
        iterations += 1

        centroid = verts[:-1].mean(axis=0)
        xr = centroid + REFLECT * (centroid - verts[-1])
        fr = _eval(objective, xr)
        if fr < fvals[0]:
            xe = centroid + EXPAND * (centroid - verts[-1])
            fe = _eval(objective, xe)
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
            else:
                verts[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + CONTRACT * (xr - centroid)
            else:
                xc = centroid + CONTRACT * (verts[-1] - centroid)
            fc = _eval(objective, xc)
            if fc < min(fr, fvals[-1]):
                verts[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    verts[i] = verts[0] + SHRINK * (verts[i] - verts[0])
                    fvals[i] = _eval(objective, verts[i])

    best = int(np.argmin(fvals))
    return verts[best].copy(), float(fvals[best]), iterations, converged


def bisect_failure(fails, hi, halvings):
    """Bracket (lo, hi) where a monotone ``fails`` on [0, hi] turns true,
    after probing 0, hi and ``halvings`` midpoints: (0.0, 0.0) when
    ``fails(0.0)`` holds, (hi, inf) when ``fails(hi)`` does not."""
    if fails(0.0):
        return 0.0, 0.0
    if not fails(hi):
        return hi, np.inf
    lo = 0.0
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if fails(mid) else (mid, hi)
    return lo, hi
