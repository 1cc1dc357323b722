"""Property suites for the geometry identities and distortion inequalities.

Shared between the test suite (full sample counts) and ``bench verify``
(reduced counts).  Every check draws its own samples from a seeded
generator, evaluates the library kernels in batch, and reports the
worst-case slack of each inequality: positive slack means violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geomap import (
    angle_deformation,
    deformation_constants_for,
    from_ball,
    make_frame,
    mapped_distance,
    pullback_gradient,
    pushforward,
    to_ball,
)
from .manifolds import (
    HYPERBOLIC,
    SPHERICAL,
    AmbientPoint,
    CurvatureClass,
    distance,
    exp_map,
    inner,
    log_map,
    norm,
    pole,
    random_in_ball,
    random_tangent,
    rowsum,
)
from .objectives import FrechetObjective, MappedObjective, definition_slacks, delta_constants

# One row per curvature sign: (sign, list of ball radii). Spherical radii
# stay below pi/2 so the ball remains inside an open hemisphere.
DEFAULT_GRID = [
    (HYPERBOLIC, (0.3, 1.0, 1.5)),
    (SPHERICAL, (0.3, 1.0, 1.4)),
]
DEFAULT_DIMS = (2, 5, 10)


@dataclass
class CheckResult:
    name: str
    worst: float
    bound: float
    cell: str = ""

    @property
    def ok(self):
        return self.worst <= self.bound

    def __str__(self):
        tag = "ok " if self.ok else "VIOLATION"
        where = f" [{self.cell}]" if self.cell else ""
        return f"{tag} {self.name}{where}: worst slack {self.worst:.3e} (allowed {self.bound:.3e})"


def _cell_frame(sign, d, R):
    return make_frame(pole(d, CurvatureClass(sign)), R)


def _sample_pairs(frame, n, rng):
    sign = frame.sign
    c = frame.x0.coords
    x = random_in_ball(c, sign, frame.R, rng, n, boundary_bias=True)
    y = random_in_ball(c, sign, frame.R, rng, n, boundary_bias=True)
    return x, y


def _frechet_for_cell(frame, rng):
    """Random anchor instance that stays g-convex on the cell's ball.

    On the sphere every anchor must stay within pi/2 of every ball point,
    which caps the anchor radius; hyperbolic cells use most of the ball.
    """
    sign = frame.sign
    if sign == SPHERICAL:
        r_a = min(0.9 * frame.R, 0.95 * (math.pi / 2 - frame.R))
    else:
        r_a = 0.9 * frame.R
    coords = random_in_ball(frame.x0.coords, sign, r_a, rng, 4)
    anchors = [AmbientPoint(c, frame.x0.space) for c in coords]
    w = rng.uniform(0.5, 1.5, 4)
    return FrechetObjective(anchors, w / w.sum(), frame.x0, frame.R)


def check_eq1_consistency(sign, d, R, n, rng):
    """Distance from ball coordinates equals the embedding distance."""
    frame = _cell_frame(sign, d, R)
    x, y = _sample_pairs(frame, n, rng)
    direct = distance(x, y, sign)
    via_map = mapped_distance(frame, to_ball(frame, x), to_ball(frame, y))
    worst = float(np.max(np.abs(direct - via_map)))
    return CheckResult("map/metric distance characterization", worst, 1e-9, f"K={sign} d={d} R={R}")


def check_roundtrips(sign, d, R, n, rng):
    """exp/log and to/from-ball round trips, and |log| = distance.

    Round-trip error is measured in ambient coordinates; the distance
    function itself cannot resolve separations below ~sqrt(eps) because of
    the arccos/arccosh conditioning at coincident points.
    """
    frame = _cell_frame(sign, d, R)
    x, y = _sample_pairs(frame, n, rng)
    v = log_map(x, y, sign)
    back = exp_map(x, v, sign)
    w1 = float(np.max(np.abs(back - y)))
    w2 = float(np.max(np.abs(norm(v, sign) - distance(x, y, sign))))
    xt = to_ball(frame, x)
    w3 = float(np.max(np.abs(from_ball(frame, xt) - x)))
    worst = max(w1, w2, w3)
    return CheckResult("exp/log and ball round trips", worst, 1e-9, f"K={sign} d={d} R={R}")


def check_distance_deformation(sign, d, R, n, rng):
    """Two-sided bound on d(x, y) / |x~ - y~| over the ball."""
    frame = _cell_frame(sign, d, R)
    dc = deformation_constants_for(sign, R, 1.0)
    x, y = _sample_pairs(frame, n, rng)
    dd = distance(x, y, sign)
    keep = dd > 1e-12
    dt = to_ball(frame, x)[keep] - to_ball(frame, y)[keep]
    ratio = dd[keep] / np.sqrt(rowsum(dt * dt))
    lo_slack = float(np.max(dc.dist_lo * (1 - 1e-9) - ratio))
    hi_slack = float(np.max(ratio - dc.dist_hi * (1 + 1e-9)))
    return CheckResult(
        "distance deformation sandwich", max(lo_slack, hi_slack), 0.0, f"K={sign} d={d} R={R}"
    )


def check_angle_deformation(sign, d, R, n, rng):
    """Closed-form angle deformation against measured log-map angles."""
    frame = _cell_frame(sign, d, R)
    x, y = _sample_pairs(frame, n, rng)
    ok = (distance(x, y, sign) > 1e-6) & (distance(frame.x0.coords, x, sign) > 1e-6)
    x, y = x[ok], y[ok]
    xt, yt = to_ball(frame, x), to_ball(frame, y)
    a = -xt
    b = yt - xt
    r = np.sqrt(rowsum(xt * xt))  # |a|: a * a and xt * xt are the same bits
    cos_t = rowsum(a * b) / (r * np.sqrt(rowsum(b * b)))
    alpha_t = np.arccos(np.clip(cos_t, -1.0, 1.0))
    sin_f, cos_f = angle_deformation(r, alpha_t, sign)
    u = log_map(x, np.broadcast_to(frame.x0.coords, x.shape), sign)
    w = log_map(x, y, sign)
    cos_m = inner(u, w, sign) / (norm(u, sign) * norm(w, sign))
    cos_m = np.clip(cos_m, -1.0, 1.0)
    sin_m = np.sqrt(1.0 - cos_m**2)
    worst = float(max(np.max(np.abs(cos_f - cos_m)), np.max(np.abs(sin_f - sin_m))))
    return CheckResult("angle deformation formula", worst, 1e-8, f"K={sign} d={d} R={R}")


def check_gradient_orthogonality(sign, d, R, n, rng):
    """Vectors normal to grad F push forward to vectors normal to grad f."""
    frame = _cell_frame(sign, d, R)
    F = _frechet_for_cell(frame, rng)
    x = random_in_ball(frame.x0.coords, sign, R, rng, n, boundary_bias=True)
    g = F.grad_c(x)
    gn = norm(g, sign)
    keep = gn > 1e-8
    x, g, gn = x[keep], g[keep], gn[keep]
    v = random_tangent(x, sign, rng)
    v = v - (inner(v, g, sign) / gn**2)[..., None] * g
    vt = pushforward(frame, x, v)
    gt = pullback_gradient(frame, x, g)
    num = np.abs(rowsum(vt * gt))
    den = np.sqrt(rowsum(vt * vt)) * np.sqrt(rowsum(gt * gt))
    keep = den > 1e-14
    worst = float(np.max(num[keep] / den[keep]))
    return CheckResult("gradient orthogonality preservation", worst, 1e-8, f"K={sign} d={d} R={R}")


def check_directional_ratio(sign, d, R, n, rng):
    """Sandwich gamma_p <= <grad F, Exp^-1 y> / <grad f, y~ - x~> <= 1/gamma_n.

    Also reports the extreme observed ratios, for the non-vacuousness
    comparison against the closed-form constants.  Those are the exact
    extremes of the ratio over the ball, moved outward by
    ``geomap.RATIO_MARGIN``, so samples approach them from inside.
    """
    frame = _cell_frame(sign, d, R)
    dc = deformation_constants_for(sign, R, 1.0)
    F = _frechet_for_cell(frame, rng)
    x, y = _sample_pairs(frame, n, rng)
    g = F.grad_c(x)
    num = inner(g, log_map(x, y, sign), sign)
    xt, yt = to_ball(frame, x), to_ball(frame, y)
    gt = pullback_gradient(frame, x, g, xt=xt)
    den = rowsum(gt * (yt - xt))
    keep = np.abs(den) > 1e-10
    ratio = num[keep] / den[keep]
    lo_slack = float(np.max(dc.gamma_p * (1 - 1e-9) - ratio))
    hi_slack = float(np.max(ratio - (1 + 1e-9) / dc.gamma_n))
    res = CheckResult(
        "directional derivative ratio sandwich",
        max(lo_slack, hi_slack),
        0.0,
        f"K={sign} d={d} R={R}",
    )
    res.extremes = (float(np.min(ratio)), float(np.max(ratio)))
    res.bounds = (dc.gamma_p, 1.0 / dc.gamma_n)
    return res


def check_relaxed_convexity(sign, d, R, n, rng):
    """Both affine lower bounds for g-convex objectives under the map."""
    frame = _cell_frame(sign, d, R)
    dc = deformation_constants_for(sign, R, 1.0)
    F = _frechet_for_cell(frame, rng)
    x, y = _sample_pairs(frame, n, rng)
    xt, yt = to_ball(frame, x), to_ball(frame, y)
    fx = F.value_c(x)
    fy = F.value_c(y)
    gt = pullback_gradient(frame, x, F.grad_c(x), xt=xt)
    den = rowsum(gt * (yt - xt))
    coeff = np.where(den <= 0, 1.0 / dc.gamma_n, dc.gamma_p)
    slack = fx + coeff * den - fy
    scale = 1.0 + np.abs(fx) + np.abs(fy)
    worst = float(np.max(slack / scale))
    return CheckResult(
        "relaxed convexity lower bounds", worst, 1e-12, f"K={sign} d={d} R={R}"
    )


def check_pullback_fd(sign, d, R, n, rng):
    """Mapped gradient against central finite differences of f = F o h^-1."""
    frame = _cell_frame(sign, d, R)
    F = _frechet_for_cell(frame, rng)
    fmap = MappedObjective(F, frame)
    # Stay slightly inside the ball so the FD stencil remains feasible, and
    # oversample so that dropping near-stationary points (where relative
    # error is ill-defined) still leaves n evaluations.
    x = random_in_ball(frame.x0.coords, sign, 0.98 * R, rng, 2 * n)
    gn_all = norm(F.grad_c(x), sign)
    x = x[gn_all > 1e-3][:n]
    xt = to_ball(frame, x)
    grad = pullback_gradient(frame, x, F.grad_c(x), xt=xt)
    fd = np.empty_like(grad)
    step = 1e-5
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        fd[:, j] = (fmap.value(xt + e) - fmap.value(xt - e)) / (2 * step)
    err = fd - grad
    worst = float(np.max(np.sqrt(rowsum(err * err)) / np.sqrt(rowsum(grad * grad))))
    return CheckResult("gradient pullback vs finite differences", worst, 1e-6, f"K={sign} d={d} R={R}")


def check_mapped_smoothness(sign, d, R, n, rng):
    """Sampled Euclidean smoothness of f never exceeds the L~ bound."""
    frame = _cell_frame(sign, d, R)
    F = _frechet_for_cell(frame, rng)
    dc = deformation_constants_for(sign, R, F.smoothness)
    x, y = _sample_pairs(frame, n, rng)
    xt, yt = to_ball(frame, x), to_ball(frame, y)
    gx = pullback_gradient(frame, x, F.grad_c(x), xt=xt)
    gy = pullback_gradient(frame, y, F.grad_c(y), xt=yt)
    dxt, dg = xt - yt, gx - gy
    dx = np.sqrt(rowsum(dxt * dxt))
    keep = dx > 1e-9
    lip = np.sqrt(rowsum(dg * dg))[keep] / dx[keep]
    worst = float(np.max(lip) - dc.L_tilde)
    return CheckResult("mapped smoothness within bound", worst, 0.0, f"K={sign} d={d} R={R}")


def check_definition_inequalities(sign, d, R, n, rng):
    """Smoothness/strong-convexity inequalities with the declared constants.

    The declared constants come from the tight anchor-reach diameter, so
    this is the strongest form; the 2R-diameter constants of the distortion
    bounds are looser and follow a fortiori whenever they are defined.
    """
    frame = _cell_frame(sign, d, R)
    F = _frechet_for_cell(frame, rng)
    pairs = [(F.smoothness, F.strong_convexity)]
    if sign == HYPERBOLIC or 2.0 * R < math.pi / 2:
        delta = delta_constants(float(sign), float(sign), 2.0 * R)
        pairs.append((delta.delta_n, delta.delta_p))
    x, y = _sample_pairs(frame, n, rng)
    return CheckResult(
        "smoothness/strong-convexity inequalities",
        max(max(slacks) for slacks in definition_slacks(F, x, y, pairs)),
        1e-12,
        f"K={sign} d={d} R={R}",
    )


ALL_CHECKS = [
    check_eq1_consistency,
    check_roundtrips,
    check_distance_deformation,
    check_angle_deformation,
    check_gradient_orthogonality,
    check_directional_ratio,
    check_relaxed_convexity,
    check_pullback_fd,
    check_mapped_smoothness,
    check_definition_inequalities,
]


def run_grid(checks=None, n=2000, seed=0):
    """Run checks over the DEFAULT_GRID x DEFAULT_DIMS cells; returns a list of CheckResult.

    ``checks=None`` runs ALL_CHECKS; an empty list runs none.
    """
    checks = ALL_CHECKS if checks is None else checks
    results = []
    for check in checks:
        rng = np.random.default_rng(seed)
        for sign, radii in DEFAULT_GRID:
            for d in DEFAULT_DIMS:
                for R in radii:
                    results.append(check(sign, d, R, n, rng))
    return results
