import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvopt import (
    AmbientPoint,
    CurvatureClass,
    GeometryError,
    FrechetObjective,
    MappedObjective,
    delta_constants,
    make_frame,
    pole,
    with_constants,
)
from curvopt import geomap, objectives
from curvopt.geomap import BALL_TOL, from_ball, pullback_gradient, to_ball
from curvopt.manifolds import distance, exp_map, inner, log_map, random_in_ball, random_tangent
from curvopt.objectives import ManifoldObjective, RegularizedObjective, load_anchors, save_anchors
from curvopt.baselines import RgdParams, reference_optimum, rgd_run

from instances import dense_frame, frechet_instance


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

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [0.5, math.nan], [math.nan, math.nan]])
    def test_nan_weights_refused(self, space, weights):
        # Both comparisons used to be False for NaN, so such weights passed.
        center = pole(3, space)
        with pytest.raises(GeometryError, match="weights must be positive"):
            FrechetObjective([center, center], weights, center, 0.8)

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
        assert np.max(np.abs(fmap.value(xt) - F.value_c(x))) < 1e-14

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
        expected = (dense_frame(center)[0] @ -log_map(center.coords, a.coords, space.sign))[:-1]
        assert np.max(np.abs(fmap.grad(np.zeros(3)) - expected)) < 1e-10


class TestRegularized:
    def test_value_and_gradient_additivity(self, space, rng):
        center, F = frechet_instance(space, 2, 1.0, 3, seed=11)
        delta = delta_constants(float(space.sign), float(space.sign), 1.2)
        mu_i = 0.37
        Freg = RegularizedObjective(F, mu_i, center, delta)
        x = random_in_ball(center.coords, space.sign, 0.6, rng, 1)[0]
        d = float(distance(x, center.coords, space.sign))
        assert Freg.value_c(x) == pytest.approx(F.value_c(x) + 0.5 * mu_i * d * d, rel=1e-12)
        expected_g = F.grad_c(x) - mu_i * log_map(x, center.coords, space.sign)
        assert np.max(np.abs(Freg.grad_c(x) - expected_g)) < 1e-12
        assert Freg.value_c(center.coords) == pytest.approx(F.value_c(center.coords), rel=1e-12)

    def test_declared_constants(self, space):
        center, F = frechet_instance(space, 2, 1.0, 3, seed=12)
        delta = delta_constants(float(space.sign), float(space.sign), 1.2)
        Freg = RegularizedObjective(F, 0.5, center, delta)
        assert Freg.smoothness == pytest.approx(F.smoothness + 0.5 * delta.delta_n)
        assert Freg.strong_convexity == pytest.approx(
            F.strong_convexity + 0.5 * delta.delta_p
        )

    def test_regularized_gradient_fd(self, space, rng):
        center, F = frechet_instance(space, 2, 1.0, 3, seed=13)
        delta = delta_constants(float(space.sign), float(space.sign), 1.2)
        Freg = RegularizedObjective(F, 0.8, center, delta)
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
            Freg = RegularizedObjective(F, mu_i, center, delta)
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
            "regularized": RegularizedObjective(F, 0.37, center, delta),
            "declared": declared,
            "regularized_declared": RegularizedObjective(declared, 0.37, center, delta),
        }

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


class TestManifoldOracleInputs:
    """A point's layout does not change the bits of ``value_c``/``grad_c``."""

    def test_one_point_inputs_give_the_same_bits(self, space, rng):
        center, F = frechet_instance(space, 5, 1.0, 20, seed=18)
        delta = delta_constants(float(space.sign), float(space.sign), 1.2)
        objs = {"frechet": F, "regularized": RegularizedObjective(F, 0.37, center, delta)}
        for one in random_in_ball(center.coords, space.sign, 1.0, rng, 12):
            read_only = one.copy()
            read_only.flags.writeable = False
            strided = np.zeros((6, 2))
            strided[:, 1] = one
            for name, obj in objs.items():
                want = [np.asarray(obj.value_c(one.copy())).tobytes(), obj.grad_c(one.copy()).tobytes()]
                for x in (one.tolist(), read_only, strided[:, 1], one[::-1].copy()[::-1]):
                    got = [np.asarray(obj.value_c(x)).tobytes(), obj.grad_c(x).tobytes()]
                    assert got == want, name


class TestClosedFormMapping:
    """Squared-distance objectives are mapped in closed form, equal to the chain rule."""

    def objectives(self, space, d):
        center, F = frechet_instance(space, d, 1.0, 6, seed=40 + d, padding=0.3)
        delta = delta_constants(float(space.sign), float(space.sign), 1.2)
        declared = with_constants(F, smoothness=2 * F.smoothness, strong_convexity=0.0)
        return center, {
            "frechet": F,
            "regularized": RegularizedObjective(F, 0.37, center, delta),
            "declared": declared,
            "regularized_declared": RegularizedObjective(declared, 0.37, center, delta),
        }

    def frames(self, space, center, rng):
        off = exp_map(center.coords, 0.3 * random_tangent(center.coords, space.sign, rng), space.sign)
        return [make_frame(center, 1.0), make_frame(AmbientPoint(off, space), 0.7)]

    def ball_points(self, frame, rng, n=30):
        """The origin, n - 10 points inside the ball and 10 at 0.999 R~."""
        dirs = rng.standard_normal((n, frame.d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = frame.R_tilde * np.concatenate([rng.uniform(0.0, 0.999, n - 10), np.full(10, 0.999)])
        return np.vstack([np.zeros(frame.d), radii[:, None] * dirs])

    @staticmethod
    def chain(obj, frame, xt):
        x = from_ball(frame, xt)
        return obj.value_c(x), pullback_gradient(frame, x, obj.grad_c(x), xt=xt)

    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_matches_chain(self, space, rng, d):
        center, objs = self.objectives(space, d)
        for frame in self.frames(space, center, rng):
            xt = self.ball_points(frame, rng)
            for name, obj in objs.items():
                fmap = MappedObjective(obj, frame)
                value, grad = self.chain(obj, frame, xt)
                scale = np.linalg.norm(grad, axis=-1)
                assert np.all(np.abs(fmap.value(xt) - value) <= 1e-13 * value), name
                assert np.all(np.linalg.norm(fmap.grad(xt) - grad, axis=-1) <= 1e-13 * scale), name
                for j, one in enumerate(xt):
                    v1, g1 = fmap.value_and_grad(one)
                    for v in (v1, fmap.value(one)):
                        assert abs(v - value[j]) <= 1e-13 * value[j], (name, j)
                    for g in (g1, fmap.grad(one)):
                        assert np.linalg.norm(g - grad[j]) <= 1e-13 * scale[j], (name, j)

    def test_custom_objective_takes_the_chain(self, space, rng):
        center, objs = self.objectives(space, 3)
        frechet = objs["frechet"]

        class Custom(ManifoldObjective):
            space = frechet.space
            smoothness = frechet.smoothness

            def value_c(self, x):
                return frechet.value_c(x)

            def grad_c(self, x):
                return frechet.grad_c(x)

        custom = Custom()
        delta = delta_constants(float(space.sign), float(space.sign), 1.2)
        for frame in self.frames(space, center, rng):
            xt = self.ball_points(frame, rng, n=12)
            for obj in (custom, RegularizedObjective(custom, 0.37, center, delta)):
                fmap = MappedObjective(obj, frame)
                value, grad = self.chain(obj, frame, xt)
                assert np.array_equal(fmap.value(xt), value)
                assert np.array_equal(fmap.grad(xt), grad)
                for one in xt:
                    x = from_ball(frame, one)
                    assert fmap.value(one) == float(obj.value_c(x))
                    assert np.array_equal(fmap.grad(one), pullback_gradient(frame, x, obj.grad_c(x), xt=one))
                    value, grad = self.chain(obj, frame, one)
                    v1, g1 = fmap.value_and_grad(one)
                    assert v1 == float(value) and np.array_equal(g1, grad)

    def test_one_point_inputs_give_the_same_bits(self, space, rng):
        center, objs = self.objectives(space, 3)
        frame = make_frame(center, 1.0)
        for one in self.ball_points(frame, rng, n=12):
            read_only = one.copy()
            read_only.flags.writeable = False
            strided = np.zeros((3, 2))
            strided[:, 1] = one
            for name, obj in objs.items():
                fmap = MappedObjective(obj, frame)
                want = (fmap.value(one.copy()), fmap.grad(one.copy()), *fmap.value_and_grad(one.copy()))
                for xt in (one.tolist(), read_only, strided[:, 1]):
                    v1, g1 = fmap.value_and_grad(xt)
                    got = (fmap.value(xt), fmap.grad(xt), v1, g1)
                    assert [np.asarray(a).tobytes() for a in got] == [np.asarray(a).tobytes() for a in want], name

    def test_point_beyond_radius_raises(self, space):
        # A NaN coordinate fails the ball test too, in closed form and in the chain.
        center, objs = self.objectives(space, 3)
        frame = make_frame(center, 1.0)
        F = objs["frechet"]

        class Chain(ManifoldObjective):
            value_c, grad_c = F.value_c, F.grad_c

        e = np.eye(3)[0]
        for obj in (*objs.values(), Chain()):
            fmap = MappedObjective(obj, frame)
            fmap.value_and_grad((frame.R_tilde + 0.5 * BALL_TOL) * e)
            for beyond in ((frame.R_tilde + 2 * BALL_TOL) * e, np.array([np.nan, 0.0, 0.0])):
                for call in (fmap.value, fmap.grad, fmap.value_and_grad):
                    with pytest.raises(GeometryError):
                        call(beyond)
                with pytest.raises(GeometryError):
                    fmap.grad(np.stack([np.zeros(3), beyond]))

    @pytest.mark.parametrize("method", ["value", "grad", "value_and_grad"])
    def test_lightlike_lift_raises(self, method):
        # H^2 at R = 12: |x~| = 1 passes the radius test, as tanh R is within
        # BALL_TOL of 1, and 1 - |x~|^2 = 0 was clamped to 1e-300, so
        # value_and_grad([1, 0]) returned 61673 and a gradient of 3.5e302 here.
        space = CurvatureClass.hyperbolic()
        center, F = frechet_instance(space, 2, 12.0, 3, seed=5)

        class Chain(ManifoldObjective):
            value_c, grad_c = F.value_c, F.grad_c

        frame = make_frame(center, 12.0)
        rim = np.array([1.0, 0.0])
        for obj in (F, Chain()):
            call = getattr(MappedObjective(obj, frame), method)
            call(0.5 * rim)
            for xt in (rim, np.stack([0.5 * rim, rim])):
                with pytest.raises(GeometryError, match="lift to no point"):
                    call(xt)

    def test_library_objective_skips_the_chain(self, space, rng, monkeypatch):
        center, objs = self.objectives(space, 3)
        frame = make_frame(center, 1.0)
        xt = self.ball_points(frame, rng, n=12)
        expected = [self.chain(objs["frechet"], frame, one) for one in xt]

        def forbidden(*args, **kwargs):
            raise AssertionError("the closed form must not map through the manifold")

        for module in (geomap, objectives):
            monkeypatch.setattr(module, "from_ball", forbidden)
            monkeypatch.setattr(module, "pullback_gradient", forbidden)
        fmap = MappedObjective(objs["frechet"], frame)
        for one, (value, grad) in zip(xt, expected):
            v1, g1 = fmap.value_and_grad(one)
            assert v1 == pytest.approx(float(value), rel=1e-13)
            assert np.allclose(g1, grad, rtol=0.0, atol=1e-13 * np.linalg.norm(grad))


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

    def test_non_numeric_row_rejected(self, tmp_path):
        path = tmp_path / "anchors.txt"
        path.write_text("# class=hyperbolic d=2\n0 0 1\n\n0 0 abc\n")
        with pytest.raises(GeometryError, match=r"anchors\.txt:4: could not convert string to float: 'abc'"):
            load_anchors(path)

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-8])
    def test_off_model_row_rejected(self, tmp_path, space, scale):
        # Rows are checked as written, not renormalized onto the model.
        name = "spherical" if space.sign > 0 else "hyperbolic"
        path = tmp_path / "anchors.txt"
        path.write_text(f"# class={name} d=2\n0 0 1\n0 0 {scale!r}\n")
        with pytest.raises(GeometryError, match=":3: anchor is off the unit"):
            load_anchors(path)


NON_FINITE = [math.nan, math.inf, -math.inf]


class ChainFrechet(FrechetObjective):
    """The Frechet oracle without cosine rows, so that MappedObjective maps it through ``from_ball``."""

    def _cosine_rows(self):
        return None


class TestNonFiniteOrOffModel:
    """ROADMAP item 8, Property 2 for the map, the oracles and ``rgd_run``.

    Each call raises ``GeometryError`` or returns some non-finite entry.
    numpy warns on the arithmetic of non-finite entries; the calls run on
    with the warnings ignored, as they do outside the suite's error filter.
    The oracles ``value_c``/``grad_c`` take points on the model, as every
    caller's are (an ``AmbientPoint`` is re-projected), so they get
    non-finite entries only.
    """

    R = 0.5
    # Kernels of an ambient point x, and of a ball point of the frame.
    AMBIENT = {
        "to_ball": lambda case, x: to_ball(case["frame"], x),
        "frechet.value_c": lambda case, x: case["F"].value_c(x),
        "frechet.grad_c": lambda case, x: case["F"].grad_c(x),
        "regularized.value_c": lambda case, x: case["G"].value_c(x),
        "regularized.grad_c": lambda case, x: case["G"].grad_c(x),
    }
    BALL = {
        "from_ball": lambda case, xt: from_ball(case["frame"], xt),
        "mapped.value": lambda case, xt: case["mapped"].value(xt),
        "mapped.grad": lambda case, xt: case["mapped"].grad(xt),
        "mapped.value_and_grad": lambda case, xt: case["mapped"].value_and_grad(xt),
        "chain.value": lambda case, xt: case["chain"].value(xt),
        "chain.grad": lambda case, xt: case["chain"].grad(xt),
        "chain.value_and_grad": lambda case, xt: case["chain"].value_and_grad(xt),
    }

    def _case(self, sign, d, seed):
        space = CurvatureClass(sign)
        center, F = frechet_instance(space, d, self.R, 3, seed=seed)
        frame = make_frame(center, self.R)
        chain = ChainFrechet(F.anchors, F.weights, center, self.R)
        G = RegularizedObjective(F, 0.37, center, delta_constants(float(sign), float(sign), 2.0 * self.R))
        return {"F": F, "G": G, "frame": frame, "mapped": MappedObjective(G, frame),
                "chain": MappedObjective(chain, frame)}

    @staticmethod
    def _non_finite(out):
        return not all(np.all(np.isfinite(part)) for part in (out if isinstance(out, tuple) else (out,)))

    @given(kernel=st.sampled_from(sorted(AMBIENT) + sorted(BALL)), sign=st.sampled_from([-1, 1]),
           d=st.integers(1, 4), seed=st.integers(0, 2**16), batch=st.booleans(),
           bad=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(NON_FINITE)), min_size=1, max_size=3)
           | st.sampled_from([0.5, 2.0, -1.0, 1e3]))
    @settings(max_examples=400)
    def test_bad_input_never_gives_a_finite_result(self, kernel, sign, d, seed, batch, bad):
        # `bad` lists non-finite entries to set, or is a factor that moves the
        # point off the model: an ambient point for to_ball is scaled by it (on
        # the sphere -1 gives the antipode, outside the ball), a ball point is
        # moved to 1.01 R~ times max(1, |factor|), beyond the ball.
        off_model = not isinstance(bad, list)
        assume(not (off_model and kernel in self.AMBIENT and kernel != "to_ball"))
        case = self._case(sign, d, seed)
        frame = case["frame"]
        x = random_in_ball(frame.x0.coords, sign, 0.9 * self.R, np.random.default_rng(seed), 1)[0]
        if kernel in self.BALL:
            x = to_ball(frame, x)
            if off_model:
                x = x * (1.01 * max(1.0, abs(bad)) * frame.R_tilde / np.linalg.norm(x))
        elif off_model:
            x = bad * x
        for j, value in [] if off_model else bad:
            x[j % x.size] = value
        if batch:  # one finite row beside the drawn one
            x = np.stack([np.zeros(d) if kernel in self.BALL else frame.x0.coords, x])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                out = (self.BALL if kernel in self.BALL else self.AMBIENT)[kernel](case, x)
            except GeometryError:
                return
        assert self._non_finite(out), out

    def test_a_value_at_an_infinite_coordinate_is_not_finite(self):
        # The clip of an infinite cosine read these points as distance 0 or pi
        # from the anchors: value_c gave 0.0 and 2.4674, while grad_c was not finite.
        space = CurvatureClass.spherical()
        anchors = [AmbientPoint([0.3, 0.0, 1.0], space), AmbientPoint([-0.3, 0.1, 1.0], space)]
        F = FrechetObjective(anchors, [0.5, 0.5], pole(2, space), 0.5)
        G = RegularizedObjective(F, 0.37, pole(2, space), delta_constants(1.0, 1.0, 1.0))
        points = np.array([[0.0, 0.0, math.inf], [math.inf, 0.0, 1.0]])
        with np.errstate(invalid="ignore"):
            for obj in (F, G):
                assert np.isnan(obj.value_c(points)).all()
                assert all(math.isnan(obj.value_c(x)) for x in points)

    def test_to_ball_refuses_a_point_off_the_model(self, space):
        # On the hyperboloid the chord from the pole to 2 e has Minkowski square
        # -1, which distance clamps to 0, and on the sphere the chord to 0.9 e
        # reads as 0.105: to_ball gave (0, 0) for both.
        e = pole(2, space)
        frame = make_frame(e, 0.5)
        for x in (2.0 * e.coords, 0.9 * e.coords, np.stack([e.coords, 2.0 * e.coords])):
            with pytest.raises(GeometryError, match="off the model"):
                to_ball(frame, x)

    @given(sign=st.sampled_from([-1, 1]), seed=st.integers(0, 2**16),
           R=st.sampled_from([0.5, *NON_FINITE, -0.5, 0.0, 20.0, 1e300]),
           bad=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(NON_FINITE)), max_size=2))
    @settings(max_examples=100)
    def test_rgd_run_never_gives_a_finite_result(self, sign, seed, R, bad):
        # A radius outside geomap.ball_radius's domain (20 is past pi/2 and
        # MAX_HYPERBOLIC_R), or an oracle whose gradient is not finite at drawn calls.
        assume(bad or R != 0.5)
        center, F = frechet_instance(CurvatureClass(sign), 2, 0.5, 3, seed=seed)
        calls = itertools.count()
        spoiled = dict(bad)

        class Spoiled(FrechetObjective):
            def grad_c(self, x):
                g = super().grad_c(x)
                return g + spoiled.get(next(calls), 0.0)

        G = Spoiled(F.anchors, F.weights, center, 0.5)
        params = RgdParams(step=1.0 / F.smoothness, max_iters=30, tol_grad=-1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                out = rgd_run(G, center, R, params).coords
            except GeometryError:
                return
        # Only a spoiled call that the run never made (it exits at a fixed point) lets it finish.
        assert R == 0.5 and min(spoiled) >= next(calls), out
