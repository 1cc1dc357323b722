import math
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvopt import (
    AmbientPoint,
    CurvatureClass,
    FrechetObjective,
    GeometryError,
    axgd,
    checks,
    pole,
)
from curvopt.geomap import (
    BALL_TOL,
    MAX_HYPERBOLIC_R,
    angle_deformation,
    ball_radius,
    deformation_constants,
    deformation_constants_for,
    from_ball,
    make_frame,
    map_differential,
    mapped_distance,
    pullback_gradient,
    pushforward,
    to_ball,
)
from curvopt.geomap import _isometry
from curvopt.manifolds import (
    HYPERBOLIC,
    SPHERICAL,
    distance,
    exp_map,
    inner,
    log_map,
    norm,
    random_in_ball,
    random_tangent,
)
from curvopt.reductions import restart_plan

from instances import RADIUS_EDGES, dense_frame

COSH1 = math.cosh(1.0)


def random_frame(space, d, R, rng):
    """Frame at a random (non-pole) basepoint, to exercise recentering."""
    c = pole(d, space).coords
    x0 = AmbientPoint(random_in_ball(c, space.sign, 0.5, rng, 1)[0], space)
    return make_frame(x0, R)


def frame_matrices(frame):
    """M and M^{-1} as the frame applies them, one basis vector at a time."""
    eye = np.eye(frame.d + 1)
    return _isometry(frame, eye).T, _isometry(frame, eye, inverse=True).T


class TestFrame:
    def test_frame_is_isometry_and_centers_x0(self, space, rng):
        sign = space.sign
        bases = [random_frame(space, d, 1.0, rng).x0 for d in (1, 2, 5, 10)]
        # Far basepoints: below the equator on the sphere, r = 3 on H^d.
        c = pole(5, space).coords
        far = exp_map(c, (2.5 if sign > 0 else 3.0) * random_tangent(c, sign, rng), sign)
        bases.append(AmbientPoint(far, space))
        if sign > 0:
            assert far[-1] < 0
            bases.append(AmbientPoint(-c, space))
        for x0 in bases:
            M, M_inv = frame_matrices(make_frame(x0, 1.0))
            eye = np.eye(x0.d + 1)
            G = eye.copy()
            G[-1, -1] = sign
            assert np.max(np.abs(M.T @ G @ M - G)) < 1e-10
            assert np.max(np.abs(M @ x0.coords - eye[-1])) < 1e-10
            assert np.max(np.abs(M_inv @ M - eye)) < 1e-10
            # The dense rank-two form: M = P + 2K e (G x0)^T, M^{-1} = P + 2 x0 e^T.
            M_ref, M_inv_ref = dense_frame(x0)
            scale = np.max(np.abs(M_ref))
            assert np.max(np.abs(M - M_ref)) < 1e-13 * scale
            assert np.max(np.abs(M_inv - M_inv_ref)) < 1e-13 * scale

    def test_frame_residuals(self, space, rng):
        # |M x0 - e|, |M^{-1} M - I| and |M^T G M - G| over 75 basepoints
        # for each d (r up to pi on S^d, plus -e; up to 3 on H^d) stay within
        # the worst residuals of the dense closed form: 6.7e-16 and 4.7e-14.
        sign = space.sign
        bound = 6.7e-16 if sign > 0 else 4.7e-14
        for d in (1, 2, 5, 10):
            c = pole(d, space).coords
            radii = rng.uniform(0.0, math.pi if sign > 0 else 3.0, 75)
            bases = [exp_map(c, r * random_tangent(c, sign, rng), sign) for r in radii]
            eye = np.eye(d + 1)
            G = eye.copy()
            G[-1, -1] = sign
            for x0 in bases + ([-c] if sign > 0 else []):
                frame = make_frame(AmbientPoint(x0, space), 1.0)
                M, M_inv = frame_matrices(frame)
                assert np.max(np.abs(_isometry(frame, frame.x0.coords) - eye[-1])) <= bound
                assert np.max(np.abs(M_inv @ M - eye)) <= bound
                assert np.max(np.abs(M.T @ G @ M - G)) <= bound

    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_identity_at_the_pole(self, space, rng, d):
        # At the pole w = 2e and a = e: both directions return every
        # coordinate exactly, also through the maps.
        frame = make_frame(pole(d, space), 1.0)
        M, M_inv = frame_matrices(frame)
        assert np.array_equal(M, np.eye(d + 1)) and np.array_equal(M_inv, np.eye(d + 1))
        x = random_in_ball(frame.x0.coords, space.sign, 0.9, rng, 20)
        v = rng.standard_normal((20, d + 1))
        assert np.array_equal(_isometry(frame, v), v)
        assert np.array_equal(_isometry(frame, v, inverse=True), v)
        xt = to_ball(frame, x)
        assert np.array_equal(xt, x[:, :-1] / x[:, -1:])
        s = 1.0 / np.sqrt(1.0 + space.sign * (xt * xt).sum(-1, keepdims=True))
        assert np.array_equal(from_ball(frame, xt), np.concatenate([xt * s, s], axis=-1))

    def test_large_d_needs_o_d_memory(self, space):
        # d = 20000: a dense frame would need 2 x 3.2 GB; the reflection
        # needs a few (d+1)-vectors.
        d = 20000
        rng = np.random.default_rng(5)
        c = pole(d, space).coords
        x0 = AmbientPoint(exp_map(c, 0.4 * random_tangent(c, space.sign, rng), space.sign), space)
        x = exp_map(x0.coords, 0.7 * random_tangent(x0.coords, space.sign, rng), space.sign)
        tracemalloc.start()
        try:
            frame = make_frame(x0, 1.0)
            back = from_ball(frame, to_ball(frame, x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert np.max(np.abs(back - x)) <= 1e-12

    def test_radius_formulas(self):
        sp = CurvatureClass.spherical()
        hy = CurvatureClass.hyperbolic()
        assert make_frame(pole(2, sp), 0.7).R_tilde == pytest.approx(math.tan(0.7), abs=1e-15)
        assert make_frame(pole(2, hy), 0.7).R_tilde == pytest.approx(math.tanh(0.7), abs=1e-15)

    def test_spherical_radius_limit(self):
        # The bound is open: the float below pi/2 is accepted.
        assert make_frame(pole(2, CurvatureClass.spherical()), math.nextafter(math.pi / 2, 0.0)).R_tilde > 1e15
        with pytest.raises(GeometryError, match=r"must lie in \(0, pi/2\) on the sphere"):
            make_frame(pole(2, CurvatureClass.spherical()), math.pi / 2)


class TestBallMaps:
    def test_center_maps_to_origin(self, space, rng):
        frame = random_frame(space, 3, 1.0, rng)
        assert np.max(np.abs(to_ball(frame, frame.x0))) < 1e-10

    def test_hyperbolic_known_value(self):
        hy = CurvatureClass.hyperbolic()
        x0 = AmbientPoint([0.0, 1.0], hy)
        frame = make_frame(x0, 1.5)
        x = AmbientPoint([math.sinh(1.0), math.cosh(1.0)], hy)
        assert to_ball(frame, x)[0] == pytest.approx(math.tanh(1.0), abs=1e-12)

    def test_spherical_known_value(self):
        sp = CurvatureClass.spherical()
        x0 = AmbientPoint([0.0, 1.0], sp)
        frame = make_frame(x0, 1.0)
        x = AmbientPoint([math.sin(0.3), math.cos(0.3)], sp)
        assert to_ball(frame, x)[0] == pytest.approx(math.tan(0.3), abs=1e-12)

    def test_roundtrip(self, space, rng):
        frame = random_frame(space, 4, 1.2 if space.sign < 0 else 0.9, rng)
        x = random_in_ball(frame.x0.coords, space.sign, frame.R, rng, 500)
        assert np.max(np.abs(from_ball(frame, to_ball(frame, x)) - x)) < 1e-10

    def test_origin_maps_to_center(self, space, rng):
        frame = random_frame(space, 3, 1.0, rng)
        x = from_ball(frame, np.zeros(3))
        assert distance(x, frame.x0.coords, space.sign) < 1e-10

    def test_boundary_maps_to_radius(self, space, rng):
        frame = random_frame(space, 3, 1.0, rng)
        u = rng.standard_normal(3)
        xt = frame.R_tilde * u / np.linalg.norm(u)
        x = from_ball(frame, xt)
        assert abs(distance(frame.x0.coords, x, space.sign) - frame.R) < 1e-9

    def test_out_of_ball_rejected(self, space, rng):
        frame = random_frame(space, 3, 0.5, rng)
        far = exp_map(frame.x0.coords, 0.7 * random_tangent(frame.x0.coords, space.sign, rng), space.sign)
        with pytest.raises(GeometryError):
            to_ball(frame, far)
        with pytest.raises(GeometryError):
            from_ball(frame, np.full(3, frame.R_tilde))
        with pytest.raises(GeometryError):  # NaN fails the ball test
            to_ball(frame, np.full(4, np.nan))


class TestMappedDistance:
    def test_known_hyperbolic_value(self):
        hy = CurvatureClass.hyperbolic()
        frame = make_frame(pole(2, hy), 1.0)
        yt = np.array([0.5, 0.0])
        assert mapped_distance(frame, np.zeros(2), yt) == pytest.approx(
            math.atanh(0.5), abs=1e-12
        )

    @pytest.mark.parametrize(
        "outside", [[2.0, 0.0], [0.9, 0.0], [math.nan, 0.0]], ids=["beyond-unit", "beyond-R~", "nan"]
    )
    def test_refuses_points_outside_the_ball(self, outside):
        # H^2 pole frame, R = 1, R~ = tanh 1 = 0.762.  Unchecked, the lift
        # clamps 1 - |x~|^2 < 0 and [2, 0] read 691.87, [0.9, 0] 1.472;
        # pullback_gradient read them as [nan, nan] and [1.207, 0.459], and
        # a NaN coordinate passed every ball test.  The ball rule refuses all.
        frame = make_frame(pole(2, CurvatureClass.hyperbolic()), 1.0)
        origin = [0.0, 0.0]
        for xt, yt in ((outside, origin), (origin, outside), ([origin, outside], [origin, origin])):
            with pytest.raises(GeometryError, match="exceed the frame radius"):
                mapped_distance(frame, xt, yt)
        x, g = from_ball(frame, [0.5, 0.0]), np.array([0.1, 0.2, 0.0])
        for call in (
            lambda: from_ball(frame, outside),
            lambda: from_ball(frame, [origin, outside]),
            lambda: pullback_gradient(frame, x, g, xt=outside),
            lambda: pullback_gradient(frame, np.stack([x, x]), np.stack([g, g]), xt=[[0.5, 0.0], outside]),
        ):
            with pytest.raises(GeometryError, match="exceed the frame radius"):
                call()
        edge = [frame.R_tilde + 0.5 * BALL_TOL, 0.0]
        assert mapped_distance(frame, edge, origin) == pytest.approx(1.0, abs=1e-8)

    def test_refuses_the_lightlike_lift(self):
        # At R = 12, tanh R is within BALL_TOL of 1, so |x~| = 1 passes the
        # radius test.  1 - |x~|^2 = 0 was clamped to 1e-300: from_ball([1, 0])
        # returned the lightlike [1e150, 0, 1e150], at distance 0.0 from the pole.
        frame = make_frame(pole(2, CurvatureClass.hyperbolic()), 12.0)
        rim, inside = [1.0, 0.0], [0.5, 0.0]
        x, g = from_ball(frame, inside), np.array([0.1, 0.2, 0.0])
        for call in (
            lambda: from_ball(frame, rim),
            lambda: from_ball(frame, [inside, rim]),
            lambda: mapped_distance(frame, rim, inside),
            lambda: pullback_gradient(frame, x, g, xt=rim),
        ):
            with pytest.raises(GeometryError, match="lift to no point"):
                call()

    def test_zero_for_equal_points(self, space, rng):
        frame = random_frame(space, 2, 1.0, rng)
        xt = to_ball(frame, random_in_ball(frame.x0.coords, space.sign, 1.0, rng, 5))
        assert np.max(mapped_distance(frame, xt, xt)) < 3e-8

    @pytest.mark.parametrize("t", [1e-6, 1e-9, 1e-12])
    def test_resolves_small_ball_steps(self, space, t):
        # On the pole frame the ray through x~ = a u is a geodesic with
        # d(a u, b u) = atanh(b) - atanh(a) = atanh((b - a) / (1 - a b)) on
        # H^2 and atan(b) - atan(a) = atan((b - a) / (1 + a b)) on S^2.
        frame = make_frame(pole(2, space), 1.0)
        xt = np.array([0.3, 0.2])
        a = math.hypot(*xt)
        yt = xt + t * xt / a
        b = math.hypot(*yt)
        if space.sign == HYPERBOLIC:
            true = math.atanh((b - a) / (1.0 - a * b))
        else:
            true = math.atan((b - a) / (1.0 + a * b))
        assert abs(mapped_distance(frame, xt, yt) - true) <= 1e-14

    def test_matches_embedding_distance(self, space, rng):
        frame = random_frame(space, 3, 1.0, rng)
        x = random_in_ball(frame.x0.coords, space.sign, 1.0, rng, 1000)
        y = random_in_ball(frame.x0.coords, space.sign, 1.0, rng, 1000)
        md = mapped_distance(frame, to_ball(frame, x), to_ball(frame, y))
        assert np.max(np.abs(md - distance(x, y, space.sign))) < 1e-9

    def test_cross_ratio_oracle_hyperbolic(self, rng):
        # Independent oracle: half the log of the cross ratio along the
        # chord through x~, y~ in the unit Klein ball.
        hy = CurvatureClass.hyperbolic()
        frame = make_frame(pole(2, hy), 1.2)
        pts = random_in_ball(frame.x0.coords, HYPERBOLIC, 1.2, rng, 40)
        xt_all = to_ball(frame, pts)
        for xt, yt in zip(xt_all[:20], xt_all[20:]):
            u = yt - xt
            nu = np.linalg.norm(u)
            if nu < 1e-9:
                continue
            u = u / nu
            # chord endpoints: |xt + s u| = 1
            b = xt @ u
            disc = math.sqrt(b * b + 1.0 - xt @ xt)
            a_pt = xt + (-b - disc) * u
            b_pt = xt + (-b + disc) * u
            cross = (np.linalg.norm(a_pt - yt) * np.linalg.norm(xt - b_pt)) / (
                np.linalg.norm(a_pt - xt) * np.linalg.norm(b_pt - yt)
            )
            oracle = 0.5 * math.log(cross)
            assert mapped_distance(frame, xt, yt) == pytest.approx(oracle, abs=1e-9)


class TestVectorMaps:
    def test_radial_vectors_stay_radial(self, space, rng):
        frame = random_frame(space, 3, 1.0, rng)
        x = random_in_ball(frame.x0.coords, space.sign, 0.9, rng, 1)[0]
        v = -log_map(x, frame.x0.coords, space.sign)
        vt = pushforward(frame, x, v)
        xt = to_ball(frame, x)
        cos = vt @ xt / (np.linalg.norm(vt) * np.linalg.norm(xt))
        assert abs(cos - 1.0) < 1e-10
        assert np.linalg.norm(vt) == pytest.approx(float(norm(v, space.sign)), rel=1e-12)

    def test_identity_at_center(self, space, rng):
        frame = random_frame(space, 3, 1.0, rng)
        v = random_tangent(frame.x0.coords, space.sign, rng)
        vt = pushforward(frame, frame.x0.coords, v)
        expected = (dense_frame(frame.x0)[0] @ v)[:-1]
        assert np.max(np.abs(vt - expected)) < 1e-10

    def test_zero_vector(self, space, rng):
        frame = random_frame(space, 3, 1.0, rng)
        assert np.allclose(pushforward(frame, frame.x0.coords, np.zeros(4)), 0.0)

    def test_pushforward_direction_matches_geodesic_image(self, space, rng):
        frame = random_frame(space, 3, 1.0, rng)
        t = 1e-4
        for _ in range(50):
            x = random_in_ball(frame.x0.coords, space.sign, 0.8, rng, 1)[0]
            v = random_tangent(x, space.sign, rng)
            vt = pushforward(frame, x, v)
            step = to_ball(frame, exp_map(x, t * v, space.sign)) - to_ball(frame, x)
            cos = step @ vt / (np.linalg.norm(step) * np.linalg.norm(vt))
            assert math.acos(min(cos, 1.0)) < 1e-6

    def test_pullback_zero_and_center(self, space, rng):
        frame = random_frame(space, 3, 1.0, rng)
        x0 = frame.x0.coords
        assert np.allclose(pullback_gradient(frame, x0, np.zeros(4)), 0.0)
        g = random_tangent(x0, space.sign, rng)
        expected = (dense_frame(frame.x0)[0] @ g)[:-1]
        assert np.max(np.abs(pullback_gradient(frame, x0, g) - expected)) < 1e-10

    def test_pullback_inverts_differential_adjoint(self, space, rng):
        # <grad f, dh(v)> must equal <grad F, v> for every tangent v: the
        # pullback is the adjoint-inverse of the map differential.  The
        # frame's basepoint is off the pole; the points are interior ones,
        # the basepoint itself and points at 0.999 R~ in ball coordinates.
        frame = random_frame(space, 3, 1.0, rng)
        assert not np.allclose(frame.x0.coords, pole(3, space).coords)
        interior = random_in_ball(frame.x0.coords, space.sign, 0.9, rng, 50)
        dirs = rng.standard_normal((20, 3))
        rim = 0.999 * frame.R_tilde * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        points = np.vstack([interior, frame.x0.coords[None], from_ball(frame, rim)])
        for x in points:
            g = random_tangent(x, space.sign, rng)
            v = random_tangent(x, space.sign, rng)
            gt = pullback_gradient(frame, x, g)
            lhs = gt @ map_differential(frame, x, v)
            assert lhs == pytest.approx(float(inner(g, v, space.sign)), rel=1e-9, abs=1e-12)
        # The batched call agrees with the one-point calls.
        g = random_tangent(points, space.sign, rng)
        batched = pullback_gradient(frame, points, g)
        single = np.stack([pullback_gradient(frame, x, gi) for x, gi in zip(points, g)])
        assert np.max(np.abs(batched - single)) < 1e-14


class TestAngleDeformation:
    def test_right_angle_fixed_point(self):
        sin_a, cos_a = angle_deformation(0.5, math.pi / 2, HYPERBOLIC)
        assert sin_a == pytest.approx(1.0, abs=1e-12)
        assert cos_a == pytest.approx(0.0, abs=1e-12)

    def test_identity_at_center(self, rng):
        alpha = rng.uniform(0, math.pi, 20)
        sin_a, cos_a = angle_deformation(0.0, alpha, SPHERICAL)
        assert np.allclose(sin_a, np.sin(alpha), atol=1e-12)
        assert np.allclose(cos_a, np.cos(alpha), atol=1e-12)

    def test_known_value(self):
        sin_a, cos_a = angle_deformation(0.5, math.pi / 4, HYPERBOLIC)
        assert sin_a == pytest.approx(0.6546536707079771, abs=1e-12)
        assert cos_a == pytest.approx(0.7559289460184545, abs=1e-12)

    @given(
        r=st.floats(0.0, 0.99),
        alpha=st.floats(0.0, math.pi),
        sign=st.sampled_from([-1, 1]),
    )
    @settings(max_examples=300)
    def test_pythagorean_identity(self, r, alpha, sign):
        sin_a, cos_a = angle_deformation(r, alpha, sign)
        assert abs(sin_a**2 + cos_a**2 - 1.0) < 1e-12


def _golden_extreme(f, a, b, sign, mp):
    """sign * max of sign * f over (a, b) by golden-section search, for f with one interior extreme."""
    g = (mp.sqrt(5) - 1) / 2
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = sign * f(c), sign * f(d)
    for _ in range(400):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = sign * f(d)
    return sign * max(fc, fd)


def _ratio_reference(R, sign=HYPERBOLIC):
    """50-digit (gamma_p, 1/gamma_n) from the rim edges of the chord ratio through the centre.

    In ball coordinates u on (-R~, R~], the chord from x~ = u0 to y~ = u1
    has metric speed 1 / (1 + K u^2) and rho = (atT u1 - atT u0) (1 + K u0^2)
    / (u1 - u0), atT = atanh (hyperboloid) or atan (sphere).  With
    S(u) = (R + atT u) / (R~ + u), x on the rim gives (1 + K R~^2) S(u) and
    y on the rim (1 + K u^2) S(u).  On the hyperboloid gamma_p is the least
    of the first and 1/gamma_n the largest of the second; on the sphere the
    edges swap.
    """
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    R = mp.mpf(R)
    Rt, atT = (mp.tanh(R), mp.atanh) if sign == HYPERBOLIC else (mp.tan(R), mp.atan)

    def S(u):
        return (R + atT(u)) / (Rt + u)

    def x_on_rim(u):
        return (1 + sign * Rt**2) * S(u)

    def y_on_rim(u):
        return (1 + sign * u**2) * S(u)

    lo_edge, hi_edge = (x_on_rim, y_on_rim) if sign == HYPERBOLIC else (y_on_rim, x_on_rim)
    return _golden_extreme(lo_edge, -Rt, Rt, -1, mp), _golden_extreme(hi_edge, -Rt, Rt, 1, mp)


def _chord_ratio(R, b, l0, l1, sign=HYPERBOLIC):
    """d(x, y) / (|y~ - x~| v(x~)) on the pole frame of the 2-d model for x~ = (l0, b), y~ = (l1, b).

    v(x~) is the metric speed of from_ball along the chord, from the
    derivative of p = (x~, 1) / sqrt(1 + K |x~|^2); the frame is the identity.
    """
    frame = make_frame(pole(2, CurvatureClass(sign)), R)
    xt = np.stack([l0, b], axis=-1)
    yt = np.stack([l1, b], axis=-1)
    e = np.sign(l1 - l0)[..., None] * np.array([1.0, 0.0])
    s2 = 1.0 + sign * (xt * xt).sum(-1, keepdims=True)
    p_dot = np.concatenate([e, np.zeros_like(s2)], -1) / np.sqrt(s2) - sign * np.concatenate(
        [xt, np.ones_like(s2)], -1
    ) * (xt * e).sum(-1, keepdims=True) / s2**1.5
    speed = np.sqrt(np.maximum(inner(p_dot, p_dot, sign), 0.0))
    d = distance(from_ball(frame, xt), from_ball(frame, yt), sign)
    return d / (np.abs(l1 - l0) * speed)


def _assert_bounds_every_chord(sign, R, rng):
    """Random chords (b, l0, l1) of the ball, biased toward chords near the
    centre with ends on the rim, then the two rim edges of chords through
    the centre, all measured through the maps."""
    dc = deformation_constants_for(sign, R, 1.0)
    Rt = ball_radius(sign, R)
    n = 20_000
    b = Rt * rng.uniform(0.0, 1.0, n) ** 2
    half = np.sqrt(Rt**2 - b**2)
    l0, l1 = (half * np.clip(rng.uniform(-1.3, 1.3, (2, n)), -1.0, 1.0))
    keep = np.abs(l1 - l0) > 1e-6
    rho = _chord_ratio(R, b[keep], l0[keep], l1[keep], sign)
    assert np.all(rho >= dc.gamma_p * (1 - 1e-9)) and np.all(rho <= (1 + 1e-9) / dc.gamma_n)
    lo, hi = _ratio_reference(R, sign)
    assert rho.min() > lo and rho.max() < hi
    # The extremes come from chords of the edge formulas, found here by a
    # grid: on the hyperboloid x on the rim (l0 = -R~) gives the least ratio
    # and y on the rim (l1 = -R~) the largest; on the sphere they swap.
    u = (np.tanh if sign == HYPERBOLIC else np.tan)(np.linspace(-R, R, 20_001)[1:])
    rim = np.full_like(u, -Rt)
    zero = np.zeros_like(u)
    x_on_rim, y_on_rim = _chord_ratio(R, zero, rim, u, sign), _chord_ratio(R, zero, u, rim, sign)
    least, largest = (x_on_rim, y_on_rim) if sign == HYPERBOLIC else (y_on_rim, x_on_rim)
    assert least.min() == pytest.approx(float(lo), rel=1e-6)
    assert largest.max() == pytest.approx(float(hi), rel=1e-6)


def _worst_line_curvature(sign, R, seed=11):
    """Largest second difference of f = 1/2 d(., a)^2 o from_ball along lines of the ball, over L~.

    Lines x~ + tau v, with the anchor a and x~ biased to the rim and 30% of
    the lines radial.  F is L-smooth on the ball, with L = 2R coth 2R on the
    hyperboloid and L = 1 on the sphere, and its minimizer a lies in the ball.
    """
    rng = np.random.default_rng(seed)
    n, d = 3000, 3
    frame = make_frame(pole(d, CurvatureClass(sign)), R)
    Rt = frame.R_tilde
    h = 1e-3 * min(Rt, 1.0 - Rt if sign == HYPERBOLIC else 1.0)

    def rim_biased(radius):
        u = rng.standard_normal((n, d))
        r = radius * np.clip(rng.uniform(0.0, 1.3, n), 0.0, 1.0)
        return u * (r / np.linalg.norm(u, axis=1))[:, None]

    a = from_ball(frame, rim_biased(Rt))
    x = rim_biased(Rt - h)  # so that the stencil stays in the ball
    v = np.where((rng.random(n) < 0.3)[:, None], x, rng.standard_normal((n, d)))
    v /= np.linalg.norm(v, axis=1, keepdims=True)

    def f(y):
        return 0.5 * distance(from_ball(frame, y), a, sign) ** 2

    second = (f(x + h * v) - 2.0 * f(x) + f(x - h * v)) / h**2
    L = 2.0 * R / math.tanh(2.0 * R) if sign == HYPERBOLIC else 1.0
    return second.max() / deformation_constants_for(sign, R, L).L_tilde


class TestDeformationConstants:
    @pytest.mark.parametrize("R", [1e-6, 0.3, 1.0, 1.5, 3.0, 9.0, 16.4])
    def test_hyperbolic_ratio_extremes_match_references(self, R):
        dc = deformation_constants_for(HYPERBOLIC, R, 2.0)
        lo, hi = _ratio_reference(R)
        assert dc.gamma_p == pytest.approx(float(lo), rel=1e-12)
        assert 1.0 / dc.gamma_n == pytest.approx(float(hi), rel=1e-12)
        # Moved outward, never inward, by the margin.
        assert dc.gamma_p <= lo and 1.0 / dc.gamma_n >= hi

    def test_hyperbolic_r1(self):
        dc = deformation_constants_for(HYPERBOLIC, 1.0, 2.0)
        assert dc.gamma_p == pytest.approx(0.51454, abs=5e-6)
        assert 1.0 / dc.gamma_n == pytest.approx(1.36452, abs=5e-6)
        assert dc.dist_lo == 1.0
        assert dc.dist_hi == pytest.approx(COSH1**2, abs=1e-15)
        assert dc.L_tilde == pytest.approx(2.0 * COSH1**4 * (1.0 + 4.0 * math.tanh(1.0)), rel=1e-12)
        assert dc.L_tilde == pytest.approx(45.8829, abs=5e-5)

    @pytest.mark.parametrize("R", [1e-3, 0.3, 1.0, 3.0, 9.0])
    def test_hyperbolic_smoothness_bounds_every_line(self, R):
        worst = _worst_line_curvature(HYPERBOLIC, R)
        assert worst <= 1.0
        if R < 0.01:  # nearly attained as R goes to 0
            assert worst > 0.99

    def test_hyperbolic_mapped_smoothness_check(self):
        # check_mapped_smoothness at 10x run_grid's default samples on the H cells.
        rng = np.random.default_rng(8)
        for d in checks.DEFAULT_DIMS:
            for R in dict(checks.DEFAULT_GRID)[HYPERBOLIC]:
                res = checks.check_mapped_smoothness(HYPERBOLIC, d, R, 20_000, rng)
                assert res.ok, res

    @pytest.mark.parametrize("R", [1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0, 9.0, 16.4])
    def test_hyperbolic_not_below_the_per_factor_bounds(self, R):
        # The paper's constants bound each distortion factor on its own.  Below
        # R of about 4e-7, RATIO_MARGIN (1e-13) exceeds the gap between them.
        # L~ is at least 1.5x below sqrt(44) L max(1, R) cosh^4 R (least near R = 2).
        dc = deformation_constants_for(HYPERBOLIC, R, 1.0)
        assert math.cosh(R) ** -3 <= dc.gamma_p <= 1.0
        assert math.cosh(R) ** -2 <= dc.gamma_n <= 1.0
        assert dc.L_tilde * 1.5 <= math.sqrt(44.0) * max(1.0, R) * math.cosh(R) ** 4

    @pytest.mark.parametrize("R", [0.3, 1.0, 1.5, 3.0])
    def test_hyperbolic_bounds_every_chord(self, R, rng):
        _assert_bounds_every_chord(HYPERBOLIC, R, rng)

    def test_hyperbolic_directional_ratio_sandwich(self):
        # check_directional_ratio at 10x run_grid's default samples on the H cells.
        rng = np.random.default_rng(7)
        for d in checks.DEFAULT_DIMS:
            for R in dict(checks.DEFAULT_GRID)[HYPERBOLIC]:
                res = checks.check_directional_ratio(HYPERBOLIC, d, R, 20_000, rng)
                assert res.ok, res
                assert res.bounds[0] <= res.extremes[0] and res.extremes[1] <= res.bounds[1]

    def test_hyperbolic_call_cost(self):
        # Pure float arithmetic, two bisections: about 30 us a call, asserted
        # with room for a slow host.
        best = min(timeit.repeat(lambda: deformation_constants_for(HYPERBOLIC, 1.0, 1.0), number=200, repeat=5))
        assert best / 200 < 1e-3

    def test_spherical_r1(self):
        dc = deformation_constants_for(SPHERICAL, 1.0, 2.0)
        assert dc.gamma_p == pytest.approx(0.61356, abs=5e-6)
        assert 1.0 / dc.gamma_n == pytest.approx(2.44642, abs=5e-6)
        assert dc.dist_lo == pytest.approx(math.cos(1.0) ** 2, abs=1e-15)
        assert dc.dist_hi == 1.0
        m = 9.0 / (8.0 * math.sqrt(3.0))  # R = 1 > pi/6
        assert dc.L_tilde == pytest.approx(2.0 * (1.0 + 2.0 * m), rel=1e-12)
        assert dc.L_tilde == pytest.approx(2.0 * 2.29904, abs=5e-5)

    def test_small_radius_limit(self):
        # gamma_p and gamma_n are 1 - O(R^2); m(R) = 2 sin R cos^3 R below pi/6.
        R = 1e-9
        dc = deformation_constants_for(SPHERICAL, R, 3.0)
        assert dc.gamma_p == pytest.approx(1.0, abs=1e-12)
        assert dc.gamma_n == pytest.approx(1.0, abs=1e-12)
        assert dc.L_tilde == 3.0 * (1.0 + 2.0 * R * (2.0 * math.sin(R) * math.cos(R) ** 3))
        assert dc.L_tilde == pytest.approx(3.0, rel=1e-15)

    @pytest.mark.parametrize("R", [1e-3, 0.3, 0.7, 1.0, 1.4])
    def test_spherical_ratio_extremes_match_references(self, R):
        dc = deformation_constants_for(SPHERICAL, R, 2.0)
        lo, hi = _ratio_reference(R, SPHERICAL)
        assert dc.gamma_p == pytest.approx(float(lo), rel=1e-12)
        assert 1.0 / dc.gamma_n == pytest.approx(float(hi), rel=1e-12)
        assert dc.gamma_p <= lo and 1.0 / dc.gamma_n >= hi

    @pytest.mark.parametrize("R", [1e-6, 1e-3, 0.1, 0.5, math.pi / 6, 0.7, 1.0, 1.4, math.nextafter(math.pi / 2, 0.0)])
    def test_spherical_not_above_the_per_factor_bounds(self, R):
        # Never looser than cos^2 R, cos^3 R and sqrt(44) L max(1, R); L~ is at
        # least 2.88x below the last.
        dc = deformation_constants_for(SPHERICAL, R, 1.0)
        assert math.cos(R) ** 2 <= dc.gamma_p <= 1.0
        assert math.cos(R) ** 3 <= dc.gamma_n <= 1.0
        assert dc.L_tilde * 2.88 <= math.sqrt(44.0) * max(1.0, R)

    def test_spherical_smoothness_is_continuous_and_nondecreasing(self):
        # m(R) switches from 2 sin R cos^3 R to its maximum 9 / (8 sqrt 3) at pi/6.
        R = np.linspace(1e-4, 1.57, 2000)
        L_tilde = np.array([deformation_constants_for(SPHERICAL, r, 1.0).L_tilde for r in R])
        assert np.all(np.diff(L_tilde) >= 0.0)
        below, at = (deformation_constants_for(SPHERICAL, r, 1.0).L_tilde for r in (math.pi / 6 - 1e-12, math.pi / 6))
        assert at - below == pytest.approx(0.0, abs=1e-11)

    @pytest.mark.parametrize("R", [1e-3, 0.3, 0.7, 1.0, 1.4])
    def test_spherical_smoothness_bounds_every_line(self, R):
        # The worst |f''| here is 1.02 / 1.08 / 1.18 / 1.33 at R = 0.3 / 0.7 / 1 / 1.4,
        # against L~ = 1.31 / 1.91 / 2.30 / 2.82.
        worst = _worst_line_curvature(SPHERICAL, R)
        assert worst <= 1.0
        if R < 0.01:  # nearly attained as R goes to 0
            assert worst > 0.99

    @pytest.mark.parametrize("R", [0.3, 1.0, 1.4])
    def test_spherical_bounds_every_chord(self, R, rng):
        _assert_bounds_every_chord(SPHERICAL, R, rng)

    def test_spherical_checks_at_ten_times_the_samples(self):
        # The smoothness, relaxed-convexity and ratio checks at 10x run_grid's
        # default samples on the S cells.
        rng = np.random.default_rng(9)
        for check in (checks.check_mapped_smoothness, checks.check_relaxed_convexity, checks.check_directional_ratio):
            for d in checks.DEFAULT_DIMS:
                for R in dict(checks.DEFAULT_GRID)[SPHERICAL]:
                    res = check(SPHERICAL, d, R, 20_000, rng)
                    assert res.ok, res

    def test_spherical_call_cost(self):
        # The same bisection as on the hyperboloid, on sin, cos and tan.
        best = min(timeit.repeat(lambda: deformation_constants_for(SPHERICAL, 1.0, 1.0), number=200, repeat=5))
        assert best / 200 < 1e-3

    def test_frame_delegation(self, rng):
        frame = random_frame(CurvatureClass.hyperbolic(), 2, 0.8, rng)
        assert deformation_constants(frame, 1.5) == deformation_constants_for(
            HYPERBOLIC, 0.8, 1.5
        )


ABOVE_MAX_HYPERBOLIC_R = math.nextafter(MAX_HYPERBOLIC_R, 20.0)


class TestRadiusRule:
    """``ball_radius`` is the one radius rule, and each library caller that takes a radius applies it."""

    @staticmethod
    def _callers(R):
        center = pole(2, CurvatureClass.hyperbolic())
        return [
            lambda: make_frame(center, R),
            lambda: restart_plan(HYPERBOLIC, 1.0, 1.0, R, 1e-3, True),
            lambda: FrechetObjective([center], [1.0], center, R),
        ]

    @pytest.mark.parametrize("R", [math.nan, math.inf, ABOVE_MAX_HYPERBOLIC_R], ids=["nan", "inf", "above-max"])
    def test_callers_refuse_a_radius_outside_the_rule(self, R):
        for call in self._callers(R):
            with pytest.raises(GeometryError, match=rf"R = {R!r} must lie in \(0, {MAX_HYPERBOLIC_R!r}\]"):
                call()

    def test_callers_accept_the_bound(self, monkeypatch):
        # At the bound a restart round certifies about 1e14 iterations: lift
        # the cap so the plan itself is returned.
        monkeypatch.setattr(axgd, "MAX_ITERATIONS", math.inf)
        frame, plan, F = (call() for call in self._callers(MAX_HYPERBOLIC_R))
        assert frame.R == plan[0][0] == MAX_HYPERBOLIC_R
        assert F.smoothness > 0

    @pytest.mark.parametrize("R", [5e-324, 1e-310, 1e-308])
    def test_subnormal_hyperbolic_radius_has_constants(self, R):
        dc = deformation_constants_for(HYPERBOLIC, R, 1.0)
        assert all(math.isfinite(c) for c in dc)
        assert 0.0 < dc.gamma_n <= 1.0 and 0.0 < dc.gamma_p <= 1.0

    @given(
        sign=st.sampled_from([SPHERICAL, HYPERBOLIC]),
        R=st.sampled_from(RADIUS_EDGES),
        d=st.sampled_from([1, 2, 10]),
    )
    @settings(max_examples=150)
    def test_edge_radius_raises_or_gives_finite_constants(self, sign, R, d):
        accepted = 0.0 < R < math.pi / 2 if sign == SPHERICAL else 0.0 < R <= MAX_HYPERBOLIC_R
        try:
            R_tilde = ball_radius(sign, R)
            frame = make_frame(pole(d, CurvatureClass(sign)), R)
            dc = deformation_constants(frame, 1.0)
        except GeometryError:
            assert not accepted
            return
        assert accepted
        assert 0.0 < R_tilde == frame.R_tilde < math.inf
        assert all(math.isfinite(c) for c in dc)
        assert 0.0 < dc.gamma_n <= 1.0 and 0.0 < dc.gamma_p <= 1.0
