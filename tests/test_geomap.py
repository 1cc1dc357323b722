import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvopt import (
    AmbientPoint,
    CurvatureClass,
    GeometryError,
    pole,
)
from curvopt.geomap import (
    BALL_TOL,
    angle_deformation,
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

from instances import dense_frame

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
        with pytest.raises(GeometryError):
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
    @settings(max_examples=300, deadline=None)
    def test_pythagorean_identity(self, r, alpha, sign):
        sin_a, cos_a = angle_deformation(r, alpha, sign)
        assert abs(sin_a**2 + cos_a**2 - 1.0) < 1e-12


class TestDeformationConstants:
    def test_hyperbolic_r1(self):
        dc = deformation_constants_for(HYPERBOLIC, 1.0, 2.0)
        assert dc.gamma_p == pytest.approx(COSH1**-3, abs=1e-15)
        assert dc.gamma_n == pytest.approx(COSH1**-2, abs=1e-15)
        assert dc.dist_lo == 1.0
        assert dc.dist_hi == pytest.approx(COSH1**2, abs=1e-15)
        assert dc.L_tilde == pytest.approx(math.sqrt(44.0) * 2.0 * COSH1**4, rel=1e-12)

    def test_spherical_r1(self):
        dc = deformation_constants_for(SPHERICAL, 1.0, 1.0)
        assert dc.gamma_p == pytest.approx(math.cos(1.0) ** 2, abs=1e-15)
        assert dc.gamma_n == pytest.approx(math.cos(1.0) ** 3, abs=1e-15)
        assert dc.dist_lo == pytest.approx(math.cos(1.0) ** 2, abs=1e-15)
        assert dc.dist_hi == 1.0

    def test_small_radius_limit(self):
        dc = deformation_constants_for(SPHERICAL, 1e-9, 3.0)
        assert dc.gamma_p == pytest.approx(1.0, abs=1e-12)
        assert dc.gamma_n == pytest.approx(1.0, abs=1e-12)
        assert dc.L_tilde == pytest.approx(math.sqrt(44.0) * 3.0, rel=1e-9)

    def test_frame_delegation(self, rng):
        frame = random_frame(CurvatureClass.hyperbolic(), 2, 0.8, rng)
        assert deformation_constants(frame, 1.5) == deformation_constants_for(
            HYPERBOLIC, 0.8, 1.5
        )
