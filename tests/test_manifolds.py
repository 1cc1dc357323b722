import copy
import math
import pickle

import numpy as np
import pytest

from curvopt import (
    AmbientPoint,
    CurvatureClass,
    GeometryError,
    pole,
)
from curvopt.bench import ConfigError, ExperimentConfig
from curvopt.manifolds import (
    HYPERBOLIC,
    SPHERICAL,
    distance,
    exp_map,
    inner,
    log_map,
    norm,
    project_point,
    project_tangent,
    random_in_ball,
    random_tangent,
)


class TestInvariants:
    def test_point_projection_sphere(self):
        p = AmbientPoint([3.0, 0.0, 4.0], CurvatureClass.spherical())
        assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-12

    def test_point_projection_hyperboloid(self):
        sp = CurvatureClass.hyperbolic()
        p = AmbientPoint([0.5, 0.2, 2.0], sp)
        q = inner(p.coords, p.coords, -1)
        assert abs(q + 1.0) < 1e-12
        assert p.coords[-1] >= 1.0

    def test_lower_sheet_rejected(self):
        with pytest.raises(GeometryError):
            AmbientPoint([0.0, 0.0, -1.0], CurvatureClass.hyperbolic())

    def test_tangent_projection(self, space, rng):
        x = pole(3, space).coords
        v = project_tangent(x, rng.standard_normal(4), space.sign)
        assert abs(inner(x, v, space.sign)) < 1e-10

    def test_curvature_class_sign_agreement(self):
        assert CurvatureClass.spherical().sign == SPHERICAL
        assert CurvatureClass.hyperbolic().sign == HYPERBOLIC
        for sign in (0, 2, -0.5):
            with pytest.raises(GeometryError):
                CurvatureClass(sign)


class TestValueTypes:
    # CurvatureClass(0) and CurvatureClass(2) are refused in
    # TestInvariants::test_curvature_class_sign_agreement.
    def test_spaces_compare_and_hash_by_sign(self):
        assert CurvatureClass(SPHERICAL) == CurvatureClass.spherical()
        assert CurvatureClass(HYPERBOLIC) != CurvatureClass.spherical()
        assert hash(CurvatureClass(HYPERBOLIC)) == hash(CurvatureClass.hyperbolic())
        assert len({CurvatureClass(1), CurvatureClass.spherical(), CurvatureClass(-1)}) == 2

    def test_fields_cannot_be_assigned_or_deleted(self, space):
        p = pole(2, space)
        fields = ((space, "sign", -space.sign), (p, "coords", np.ones(3)), (p, "space", space))
        for obj, name, value in fields:
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) is before

    def test_point_coords_are_read_only_and_not_aliased(self, space):
        raw = np.array([0.3, 0.2, 1.5])
        p = AmbientPoint(raw, space)
        with pytest.raises(ValueError):
            p.coords[0] = 0.0
        before = p.coords.copy()
        raw[0] = 9.0
        assert np.array_equal(p.coords, before)

    @pytest.mark.parametrize("route", ["copy", "deepcopy", "pickle"])
    def test_copied_point_keeps_read_only_coords(self, space, route):
        p = AmbientPoint([0.3, 0.2, 1.5], space)
        q = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda p: pickle.loads(pickle.dumps(p))}[route](p)
        with pytest.raises(ValueError):
            q.coords[0] = 0.0
        assert q.coords.tobytes() == p.coords.tobytes()
        assert q == p and not q != p and q.space == p.space

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, space, bad):
        with pytest.raises(GeometryError, match="finite"):
            AmbientPoint([0.3, bad, 1.5], space)

    def test_point_is_one_dimensional(self, space):
        with pytest.raises(GeometryError):
            AmbientPoint(np.array([[0.0, 0.0, 1.0]]), space)


class TestDistance:
    def test_identity(self, space):
        x = pole(4, space)
        assert x.distance_to(x) == 0.0

    def test_hyperbolic_unit_step(self):
        sp = CurvatureClass.hyperbolic()
        x = AmbientPoint([0.0, 1.0], sp)
        y = AmbientPoint([math.sinh(1.0), math.cosh(1.0)], sp)
        assert abs(x.distance_to(y) - 1.0) < 1e-12

    def test_sphere_known_angle(self):
        sp = CurvatureClass.spherical()
        x = pole(2, sp)
        y = AmbientPoint([math.sin(0.3), 0.0, math.cos(0.3)], sp)
        assert abs(x.distance_to(y) - 0.3) < 1e-12

    def test_symmetry_and_triangle(self, space, rng):
        c = pole(3, space).coords
        pts = random_in_ball(c, space.sign, 1.0, rng, 300)
        x, y, z = pts[:100], pts[100:200], pts[200:]
        dxy = distance(x, y, space.sign)
        assert np.allclose(dxy, distance(y, x, space.sign), atol=1e-12)
        assert np.all(dxy <= distance(x, z, space.sign) + distance(z, y, space.sign) + 1e-9)

    @pytest.mark.parametrize("t", [1e-6, 1e-9, 1e-12])
    def test_resolves_short_distances(self, space, rng, t):
        # arccos/arccosh of <x, y> cannot resolve distances below ~2e-8.
        c = pole(3, space).coords
        x = np.vstack([c, random_in_ball(c, space.sign, 1.0, rng, 20)])
        y = exp_map(x, t * random_tangent(x, space.sign, rng), space.sign)
        assert np.max(np.abs(distance(x, y, space.sign) - t)) <= 1e-14

    def test_domain_violation_raises(self):
        bad = np.array([0.0, 0.9])  # not on the hyperboloid, inner > -1
        good = np.array([0.0, 1.0])
        with pytest.raises(GeometryError):
            distance(bad, good, HYPERBOLIC)


class TestExpLog:
    def test_exp_zero_is_base(self, space):
        x = pole(3, space).coords
        assert np.allclose(exp_map(x, np.zeros(4), space.sign), x)

    def test_exp_hyperbolic_closed_form(self):
        y = exp_map(np.array([0.0, 1.0]), np.array([1.0, 0.0]), HYPERBOLIC)
        assert np.allclose(y, [math.sinh(1.0), math.cosh(1.0)], atol=1e-12)

    def test_log_zero_at_same_point(self, space):
        x = pole(3, space).coords
        assert np.allclose(log_map(x, x, space.sign), 0.0)

    def test_roundtrip_many(self, space, rng):
        c = pole(5, space).coords
        x = random_in_ball(c, space.sign, 1.2, rng, 2000)
        y = random_in_ball(c, space.sign, 1.2, rng, 2000)
        v = log_map(x, y, space.sign)
        assert np.max(np.abs(exp_map(x, v, space.sign) - y)) < 1e-9
        assert np.max(np.abs(norm(v, space.sign) - distance(x, y, space.sign))) < 1e-10

    def test_exp_distance_matches_norm(self, space, rng):
        x = pole(4, space).coords
        u = random_tangent(x, space.sign, rng, size=500)
        r = rng.uniform(0, 1.2, 500)[:, None]
        y = exp_map(x, r * u, space.sign)
        assert np.max(np.abs(distance(x, y, space.sign) - r[:, 0])) < 1e-10


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_tangent_raises(self, space, bad):
        # A NaN norm used to select the base point: exp_map(e, [nan, 0, 0])
        # returned e.  One bad row in a batch raises too.
        x = pole(2, space).coords
        v = np.array([[0.1, 0.2, 0.0], [bad, 0.0, 0.0]])
        with np.errstate(invalid="ignore"), pytest.raises(GeometryError, match="finite"):
            exp_map(x, v[1], space.sign)
        with np.errstate(invalid="ignore"), pytest.raises(GeometryError, match="finite"):
            exp_map(x, v, space.sign)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_tangent_raises_before_any_warning(self, space, bad):
        # The same cases with numpy's RuntimeWarnings turned into errors: an
        # inf norm used to print "invalid value" warnings before the raise.
        x = pole(2, space).coords
        v = np.array([[0.1, 0.2, 0.0], [bad, 0.0, 0.0]])
        with np.errstate(all="warn"):
            for tangent in (v[1], v):
                with pytest.raises(GeometryError, match="finite"):
                    exp_map(x, tangent, space.sign)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_point_raises(self, space, bad):
        p = np.array([[0.3, 0.2, 1.5], [0.3, bad, 1.5]])
        with np.errstate(invalid="ignore"), pytest.raises(GeometryError, match="finite"):
            project_point(p, space.sign)
        with np.errstate(invalid="ignore"), pytest.raises(GeometryError, match="finite"):
            exp_map(p[1], np.zeros(3), space.sign)

    def test_overflowing_norm_raises(self, space):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GeometryError, match="finite"):
            project_point([1e200, 0.0, 2e200], space.sign)

    def test_finite_exp_keeps_its_bits(self, space, rng):
        # Against the selection by t > 0 that the NaN fix replaced, with
        # zero tangents in the batch.
        sign = space.sign
        x = random_in_ball(pole(3, space).coords, sign, 0.8, rng, 64)
        v = random_tangent(x, sign, rng) * rng.uniform(0.0, 1.0, (64, 1))
        v[::7] = 0.0
        t = norm(v, sign)[..., None]
        u = v / np.maximum(t, 1e-300)
        out = (np.cos(t) * x + np.sin(t) * u) if sign > 0 else (np.cosh(t) * x + np.sinh(t) * u)
        out = np.where(t > 0, out, x)
        if sign > 0:
            ref = out / np.linalg.norm(out, axis=-1, keepdims=True)
        else:
            ref = out / np.sqrt(-inner(out, out, sign))[..., None]
        assert exp_map(x, v, sign).tobytes() == ref.tobytes()


class TestGradHalfSqdist:
    """The gradient of x -> d(x, a)^2 / 2 is -log_map(x, a)."""

    def test_zero_at_anchor(self, space):
        x = pole(3, space).coords
        assert np.allclose(-log_map(x, x, space.sign), 0.0)

    def test_equals_minus_log(self, space, rng):
        # Closed form: -theta u / |u|, u = a - sign <x, a> x the tangential
        # part of a at x, |u| = sin(theta) or sinh(theta).
        c = pole(3, space).coords
        x, a = random_in_ball(c, space.sign, 1.0, rng, 2)
        theta = float(distance(x, a, space.sign))
        u = a - space.sign * float(inner(x, a, space.sign)) * x
        un = math.sin(theta) if space.sign == SPHERICAL else math.sinh(theta)
        assert np.allclose(-theta * u / un, -log_map(x, a, space.sign), atol=1e-14)

    def test_norm_equals_distance(self, space, rng):
        c = pole(3, space).coords
        pts = random_in_ball(c, space.sign, 1.0, rng, 400)
        x, a = pts[:200], pts[200:]
        g = -log_map(x, a, space.sign)
        assert np.max(np.abs(norm(g, space.sign) - distance(x, a, space.sign))) < 1e-10

    def test_matches_finite_differences(self, space, rng):
        c = pole(3, space).coords
        h = 1e-5
        for _ in range(50):
            x, a = random_in_ball(c, space.sign, 1.0, rng, 2)
            g = -log_map(x, a, space.sign)
            u = random_tangent(x, space.sign, rng)
            fd = (
                distance(exp_map(x, h * u, space.sign), a, space.sign) ** 2
                - distance(exp_map(x, -h * u, space.sign), a, space.sign) ** 2
            ) / (4 * h)
            assert abs(fd - inner(g, u, space.sign)) <= 1e-6 * max(1.0, abs(fd))


class TestRescaling:
    def test_rejects_flat_and_hemisphere_violation(self):
        with pytest.raises(ConfigError, match="^curvature:"):
            ExperimentConfig(curvature=0.0).validate()
        with pytest.raises(ConfigError, match="^R:"):
            ExperimentConfig(manifold="spherical", curvature=1.0, R=math.pi / 2).validate()
        with pytest.raises(ConfigError, match="^R:"):
            ExperimentConfig(manifold="spherical", curvature=0.25, R=3.2).validate()
        ExperimentConfig(manifold="spherical", curvature=0.25, R=3.1).validate()

    def test_distance_rescaling_consistency(self, rng):
        # Independent raw-curvature oracle: the curvature-K hyperboloid is
        # {<p,p>_L = 1/K} with distance arccosh(|K| <x,y>_L) / sqrt|K|.
        # Scaling coordinates by sqrt|K| lands on the unit model and must
        # multiply distances by sqrt|K|.
        K = -4.0
        s = math.sqrt(abs(K))
        c = pole(2, CurvatureClass.hyperbolic()).coords
        unit_pts = random_in_ball(c, HYPERBOLIC, 0.8, rng, 40)
        raw_pts = unit_pts / s
        for x, y in zip(raw_pts[:20], raw_pts[20:]):
            d_raw = math.acosh(max(abs(K) * -inner(x, y, HYPERBOLIC), 1.0)) / s
            d_unit = float(distance(s * x, s * y, HYPERBOLIC))
            assert math.isclose(d_unit, s * d_raw, rel_tol=1e-10, abs_tol=1e-12)
