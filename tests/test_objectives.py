import math

import numpy as np
import pytest

from curvopt import (
    AmbientPoint,
    CurvatureClass,
    GeometryError,
    FrechetObjective,
    MappedObjective,
    delta_constants,
    make_frame,
    pole,
    regularized,
    with_constants,
)
from curvopt.manifolds import distance, exp_map, inner, log_map, random_in_ball, random_tangent
from curvopt.objectives import load_anchors, save_anchors
from curvopt.baselines import reference_optimum

from conftest import frechet_instance


class TestDeltaConstants:
    def test_flat_case(self):
        dc = delta_constants(0.0, 0.0, 2.0)
        assert (dc.delta_p, dc.delta_n) == (1.0, 1.0)

    def test_hyperbolic_example(self):
        dc = delta_constants(-1.0, -1.0, 2.0)
        assert dc.delta_p == 1.0
        assert dc.delta_n == pytest.approx(2.0 / math.tanh(2.0), abs=1e-12)

    def test_spherical_example(self):
        dc = delta_constants(1.0, 1.0, 1.0)
        assert dc.delta_n == 1.0
        assert dc.delta_p == pytest.approx(1.0 / math.tan(1.0), abs=1e-12)

    def test_rejects_wide_spherical_diameter(self):
        with pytest.raises(GeometryError):
            delta_constants(1.0, 1.0, math.pi / 2)
        with pytest.raises(GeometryError):
            delta_constants(1.0, -1.0, 1.0)


class TestFrechet:
    def test_single_anchor_minimizer(self, space):
        center = pole(3, space)
        F = FrechetObjective([center], [1.0], center, 0.8)
        assert F.known_minimizer is center
        assert F.value(center) == 0.0

    def test_weights_validated(self, space):
        center = pole(3, space)
        with pytest.raises(GeometryError):
            FrechetObjective([center], [0.5], center, 0.8)
        with pytest.raises(GeometryError):
            FrechetObjective([center], [-1.0], center, 0.8)

    def test_anchors_must_be_inside_ball(self, space, rng):
        center = pole(3, space)
        far = AmbientPoint(
            exp_map(center.coords, 0.9 * random_tangent(center.coords, space.sign, rng), space.sign),
            space,
        )
        with pytest.raises(GeometryError):
            FrechetObjective([far], [1.0], center, 0.5)

    def test_value_is_weighted_sqdist(self, space, rng):
        center, F = frechet_instance(space, 3, 1.0, 4, seed=5)
        x = AmbientPoint(random_in_ball(center.coords, space.sign, 1.0, rng, 1)[0], space)
        direct = 0.5 * sum(
            w * x.distance_to(a) ** 2 for w, a in zip(F.weights, F.anchors)
        )
        assert F.value(x) == pytest.approx(direct, rel=1e-12)

    def test_gradient_is_weighted_log_sum(self, space, rng):
        center, F = frechet_instance(space, 3, 1.0, 4, seed=6)
        x = random_in_ball(center.coords, space.sign, 1.0, rng, 1)[0]
        expected = -sum(
            w * log_map(x, a.coords, space.sign) for w, a in zip(F.weights, F.anchors)
        )
        assert np.max(np.abs(F.grad_c(x) - expected)) < 1e-12

    def test_gradient_finite_differences(self, space, rng):
        center, F = frechet_instance(space, 3, 1.0, 4, seed=7)
        h = 1e-5
        for _ in range(30):
            x = random_in_ball(center.coords, space.sign, 1.0, rng, 1)[0]
            u = random_tangent(x, space.sign, rng)
            fd = (
                F.value_c(exp_map(x, h * u, space.sign))
                - F.value_c(exp_map(x, -h * u, space.sign))
            ) / (2 * h)
            assert fd == pytest.approx(float(inner(F.grad_c(x), u, space.sign)), rel=1e-6, abs=1e-9)


class TestMappedObjective:
    def test_composition_is_exact(self, space, rng):
        center, F = frechet_instance(space, 3, 1.0, 3, seed=8)
        frame = make_frame(center, 1.0)
        fmap = MappedObjective(F, frame)
        x = random_in_ball(center.coords, space.sign, 1.0, rng, 200)
        from curvopt.geomap import to_ball

        xt = to_ball(frame, x)
        assert np.max(np.abs(fmap.value_many(xt) - F.value_c(x))) < 1e-14

    def test_value_at_origin(self, space):
        center, F = frechet_instance(space, 3, 1.0, 3, seed=9)
        frame = make_frame(center, 1.0)
        fmap = MappedObjective(F, frame)
        assert fmap.value(np.zeros(3)) == pytest.approx(F.value(center), rel=1e-12)

    def test_single_anchor_zero_at_minimizer(self, space, rng):
        center = pole(3, space)
        a = AmbientPoint(random_in_ball(center.coords, space.sign, 0.6, rng, 1)[0], space)
        F = FrechetObjective([a], [1.0], center, 1.0)
        frame = make_frame(center, 1.0)
        fmap = MappedObjective(F, frame)
        from curvopt.geomap import to_ball

        at = to_ball(frame, a)
        assert fmap.value(at) == pytest.approx(0.0, abs=1e-14)
        assert np.linalg.norm(fmap.grad(at)) < 1e-10

    def test_grad_at_origin_is_frame_coords(self, space, rng):
        center = pole(3, space)
        a = AmbientPoint(random_in_ball(center.coords, space.sign, 0.6, rng, 1)[0], space)
        F = FrechetObjective([a], [1.0], center, 1.0)
        frame = make_frame(center, 1.0)
        fmap = MappedObjective(F, frame)
        expected = (frame.mat @ -log_map(center.coords, a.coords, space.sign))[:-1]
        assert np.max(np.abs(fmap.grad(np.zeros(3)) - expected)) < 1e-10


class TestRegularized:
    def test_mu_zero_is_identity(self, space):
        center, F = frechet_instance(space, 2, 1.0, 3, seed=10)
        delta = F.delta
        assert regularized(F, 0.0, center, delta) is F

    def test_value_and_gradient_additivity(self, space, rng):
        center, F = frechet_instance(space, 2, 1.0, 3, seed=11)
        delta = delta_constants(float(space.sign), float(space.sign), 1.2)
        mu_i = 0.37
        Freg = regularized(F, mu_i, center, delta)
        x = random_in_ball(center.coords, space.sign, 0.6, rng, 1)[0]
        d = float(distance(x, center.coords, space.sign))
        assert Freg.value_c(x) == pytest.approx(F.value_c(x) + 0.5 * mu_i * d * d, rel=1e-12)
        expected_g = F.grad_c(x) - mu_i * log_map(x, center.coords, space.sign)
        assert np.max(np.abs(Freg.grad_c(x) - expected_g)) < 1e-12
        assert Freg.value_c(center.coords) == pytest.approx(F.value_c(center.coords), rel=1e-12)

    def test_declared_constants(self, space):
        center, F = frechet_instance(space, 2, 1.0, 3, seed=12)
        delta = delta_constants(float(space.sign), float(space.sign), 1.2)
        Freg = regularized(F, 0.5, center, delta)
        assert Freg.smoothness == pytest.approx(F.smoothness + 0.5 * delta.delta_n)
        assert Freg.strong_convexity == pytest.approx(
            F.strong_convexity + 0.5 * delta.delta_p
        )

    def test_regularized_gradient_fd(self, space, rng):
        center, F = frechet_instance(space, 2, 1.0, 3, seed=13)
        delta = delta_constants(float(space.sign), float(space.sign), 1.2)
        Freg = regularized(F, 0.8, center, delta)
        h = 1e-5
        x = random_in_ball(center.coords, space.sign, 0.6, rng, 1)[0]
        u = random_tangent(x, space.sign, rng)
        fd = (
            Freg.value_c(exp_map(x, h * u, space.sign))
            - Freg.value_c(exp_map(x, -h * u, space.sign))
        ) / (2 * h)
        assert fd == pytest.approx(float(inner(Freg.grad_c(x), u, space.sign)), rel=1e-6)

    def test_minimizer_distance_shrinks(self):
        # The regularized minimizer lies no farther from the center than the
        # unregularized one, measured with a high-precision solve.
        space = CurvatureClass.hyperbolic()
        center, F = frechet_instance(space, 2, 1.0, 4, seed=14)
        x_star, _ = reference_optimum(F, center, 1.0)
        delta = delta_constants(-1.0, -1.0, 2.0)
        for mu_i in (0.05, 0.4, 2.0):
            Freg = regularized(F, mu_i, center, delta)
            x_reg, _ = reference_optimum(Freg, center, 1.0)
            assert center.distance_to(x_reg) <= center.distance_to(x_star) + 1e-6


class TestDeclaredConstants:
    def test_loosening_allowed(self, space):
        _, F = frechet_instance(space, 2, 1.0, 3, seed=15)
        F2 = with_constants(F, smoothness=10 * F.smoothness, strong_convexity=0.0)
        assert F2.smoothness == 10 * F.smoothness
        assert F2.strong_convexity == 0.0
        assert F2.oracle_equivalent is F

    def test_tightening_rejected(self, space):
        _, F = frechet_instance(space, 2, 1.0, 3, seed=16)
        with pytest.raises(GeometryError):
            with_constants(F, smoothness=0.1 * F.smoothness)
        with pytest.raises(GeometryError):
            with_constants(F, strong_convexity=F.strong_convexity + 1.0)

    def test_copy_shares_the_oracle(self, space, rng):
        center, F = frechet_instance(space, 2, 1.0, 3, seed=15)
        L, mu = F.smoothness, F.strong_convexity
        F2 = with_constants(with_constants(F, smoothness=2 * L), strong_convexity=0.0)
        assert type(F2) is type(F)
        assert (F.smoothness, F.strong_convexity) == (L, mu)
        assert (F2.smoothness, F2.strong_convexity) == (2 * L, 0.0)
        assert F2.oracle_equivalent is F
        x = random_in_ball(center.coords, space.sign, 1.0, rng, 8)
        assert np.array_equal(F2.grad_c(x), F.grad_c(x))
        assert np.array_equal(F2.value_c(x), F.value_c(x))


class TestValueAndGrad:
    """The fused oracle returns exactly what the two separate calls return."""

    def objectives(self, space):
        center, F = frechet_instance(space, 3, 1.0, 4, seed=17, padding=0.3)
        delta = delta_constants(float(space.sign), float(space.sign), 1.2)
        declared = with_constants(F, strong_convexity=0.0)
        return center, {
            "frechet": F,
            "regularized": regularized(F, 0.37, center, delta),
            "declared": declared,
            "regularized_declared": regularized(declared, 0.37, center, delta),
        }

    def test_matches_separate_calls_bitwise(self, space, rng):
        center, objs = self.objectives(space)
        x = random_in_ball(center.coords, space.sign, 1.0, rng, 64).reshape(4, 16, -1)
        for name, obj in objs.items():
            value, grad = obj.value_and_grad_c(x)
            assert value.shape == (4, 16), name
            assert np.array_equal(value, obj.value_c(x)), name
            assert np.array_equal(grad, obj.grad_c(x)), name

    def test_mapped_matches_separate_calls(self, space, rng):
        center, objs = self.objectives(space)
        frame = make_frame(center, 1.0)
        dirs = rng.standard_normal((20, 3))
        radii = frame.R_tilde * rng.uniform(0.0, 0.999, (20, 1))
        points = np.vstack([np.zeros((1, 3)), radii * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)])
        for name, obj in objs.items():
            fmap = MappedObjective(obj, frame)
            for xt in points:
                value, grad = fmap.value_and_grad(xt)
                assert type(value) is float and value == fmap.value(xt), name
                assert np.array_equal(grad, fmap.grad(xt)), name


class TestAnchorFiles:
    def test_roundtrip(self, tmp_path, space, rng):
        center = pole(3, space)
        coords = random_in_ball(center.coords, space.sign, 0.7, rng, 4)
        anchors = [AmbientPoint(c, space) for c in coords]
        path = tmp_path / "anchors.txt"
        save_anchors(path, space, anchors)
        header = path.read_text().splitlines()[0]
        name = "spherical" if space.sign > 0 else "hyperbolic"
        assert header == f"# class={name} d=3"
        out_space, loaded = load_anchors(path)
        assert out_space.sign == space.sign
        assert len(loaded) == 4
        for a, b in zip(anchors, loaded):
            assert np.max(np.abs(a.coords - b.coords)) < 1e-14

    def test_class_mismatch_rejected(self, tmp_path):
        sp = CurvatureClass.spherical()
        path = tmp_path / "anchors.txt"
        save_anchors(path, sp, [pole(2, sp)])
        with pytest.raises(GeometryError):
            load_anchors(path, CurvatureClass.hyperbolic())

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "anchors.txt"
        path.write_text("0 0 1\n")
        with pytest.raises(GeometryError):
            load_anchors(path)

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-8])
    def test_off_model_row_rejected(self, tmp_path, space, scale):
        # Rows are checked as written, not renormalized onto the model.
        name = "spherical" if space.sign > 0 else "hyperbolic"
        path = tmp_path / "anchors.txt"
        path.write_text(f"# class={name} d=2\n0 0 1\n0 0 {scale!r}\n")
        with pytest.raises(GeometryError, match=":3: anchor is off the unit"):
            load_anchors(path)
