"""Independent reference implementations shared by the test modules."""

import numpy as np

from curveband import PointSet, TrigPolynomial, evaluate, evaluate_on_grid


def derivative_coeffs(poly, axis):
    """Coefficients of the partial derivative along one axis."""
    k = poly.support.indices()[:, axis]
    return TrigPolynomial(poly.support, poly.coeffs * (2j * np.pi * k))


def refine_to_zero_set(poly, pts, iters=6):
    """Newton-project points onto {psi = 0} of a real-valued polynomial."""
    x = pts.points.copy()
    dx1 = derivative_coeffs(poly, 0)
    dx2 = derivative_coeffs(poly, 1)
    for _ in range(iters):
        p = PointSet(2, x)
        val = evaluate(poly, p).real
        g = np.stack([evaluate(dx1, p).real, evaluate(dx2, p).real])
        x = (x - g * (val / np.maximum(np.sum(g * g, axis=0), 1e-30))) % 1.0
    return PointSet(2, x)


def count_common_zeros(pa, pb, grid=128, bound_hint=64):
    """Number of solutions of pa(x) = pb(x) = 0 in the unit square, found by
    dense grid search plus Gauss-Newton refinement. Asserts the count stays
    within bound_hint.

    Gauss-Newton runs on all (at most 400) candidates at once; each one
    stops after 30 steps or after a step shorter than 1e-14, as it would
    alone.
    """
    ga = np.abs(evaluate_on_grid(pa, grid)) ** 2
    gb = np.abs(evaluate_on_grid(pb, grid)) ** 2
    f = ga + gb
    floor = np.quantile(f, 0.02)
    cand = np.argwhere(f <= max(floor, 1e-8))
    derivs = [(derivative_coeffs(p, 0), derivative_coeffs(p, 1))
              for p in (pa, pb)]
    x = cand[:400].T / grid                       # (2, candidates)
    active = np.ones(x.shape[1], dtype=bool)
    for _ in range(30):
        if not active.any():
            break
        p = PointSet(2, x[:, active])
        va, vb = evaluate(pa, p), evaluate(pb, p)
        r = np.stack([va.real, va.imag, vb.real, vb.imag], axis=1)
        rows = []
        for d1, d2 in derivs:
            g1, g2 = evaluate(d1, p), evaluate(d2, p)
            rows += [np.stack([g1.real, g2.real], axis=1),
                     np.stack([g1.imag, g2.imag], axis=1)]
        jac = np.stack(rows, axis=1)              # (active, 4, 2)
        # rtol=None cuts at max(M, N) * eps, as lstsq(rcond=None) does
        step = np.einsum("mij,mj->mi", np.linalg.pinv(jac, rtol=None), r)
        x[:, active] = (x[:, active] - step.T) % 1.0
        active[active] = np.linalg.norm(step, axis=1) >= 1e-14
    p = PointSet(2, x)
    on_both = ((np.abs(evaluate(pa, p)) < 1e-9)
               & (np.abs(evaluate(pb, p)) < 1e-9))
    distinct = []
    for z in x[:, on_both].T:
        if all(np.linalg.norm((z - y + 0.5) % 1.0 - 0.5) > 1e-5
               for y in distinct):
            distinct.append(z)
    assert len(distinct) <= bound_hint
    return len(distinct)
