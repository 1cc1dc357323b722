"""The two array rules of the library's kernels and solvers.

Layout in: every kernel that forms a ``@``/``.dot`` product reads its points
as a C-contiguous float array, so a strided batch gives the same bits as its
C-contiguous copy.  Ownership out: the iterates the solvers hand out are
read-only and shared, never copied per record.
"""

import copy
import functools
import math

import numpy as np
import pytest

from curvopt import axgd
from curvopt.axgd import mirror_dual_grad, params_from_constants
from curvopt.baselines import RgdParams, rgd_run
from curvopt.geomap import (
    deformation_constants,
    from_ball,
    make_frame,
    map_differential,
    mapped_distance,
    pullback_gradient,
    pushforward,
    to_ball,
)
from curvopt.manifolds import AmbientPoint, CurvatureClass, exp_map, pole, random_in_ball, random_tangent
from curvopt.objectives import FrechetObjective, MappedObjective, RegularizedObjective, delta_constants

from instances import frechet_instance

LAYOUTS = {
    "fortran": np.asfortranarray,
    "reversed-inner-batch-axis": lambda a: a[:, ::-1],
    "reversed-outer-axis": lambda a: a[::-1],
    "swapped-batch-axes": lambda a: a.swapaxes(0, 1),
}


@functools.lru_cache(maxsize=None)
def _case(sign, d):
    """An off-pole frame, objectives on its ball and (4, 16, .) batches of points in it."""
    space = CurvatureClass(sign)
    R = 1.0 if sign < 0 else 0.6
    rng = np.random.default_rng(10 * d + (sign > 0))
    center = AmbientPoint(random_in_ball(pole(d, space).coords, sign, 0.4, rng, 1)[0], space)
    frame = make_frame(center, R)
    anchors = [AmbientPoint(c, space) for c in random_in_ball(center.coords, sign, 0.75 * R, rng, 4)]
    w = rng.uniform(0.5, 1.5, 4)
    F4 = FrechetObjective(anchors, w / w.sum(), center, R)
    F1 = FrechetObjective(anchors[:1], [1.0], center, R)
    reg_center = AmbientPoint(random_in_ball(center.coords, sign, 0.5 * R, rng, 1)[0], space)
    G = RegularizedObjective(F4, 0.37, reg_center, delta_constants(sign, sign, 2.0 * R))
    chained = copy.copy(F4)  # an objective without cosine rows takes the mapped chain
    chained._cosine_rows = lambda: None
    x = random_in_ball(center.coords, sign, R, rng, 64)
    y = random_in_ball(center.coords, sign, R, rng, 64)
    v = random_tangent(x, sign, rng) * rng.uniform(0.0, 1.0, (64, 1))
    pts = {"x": x, "y": y, "v": v, "g": F4.grad_c(x), "xt": to_ball(frame, x), "yt": to_ball(frame, y)}
    objs = {"F1": F1, "F4": F4, "G": G, "f": MappedObjective(F4, frame), "f_chain": MappedObjective(chained, frame)}
    return frame, objs, {k: a.reshape((4, 16, a.shape[-1])) for k, a in pts.items()}


def _each_point(fn, xt):
    """``fn`` on each 1-D point of a batch of ball points: a one-point kernel on strided points."""
    return [fn(xt[i, j]) for i in range(xt.shape[0]) for j in range(xt.shape[1])]


KERNELS = {
    "FrechetObjective.value_c-1": lambda fr, o, p: o["F1"].value_c(p["x"]),
    "FrechetObjective.grad_c-1": lambda fr, o, p: o["F1"].grad_c(p["x"]),
    "FrechetObjective.value_c-4": lambda fr, o, p: o["F4"].value_c(p["x"]),
    "FrechetObjective.grad_c-4": lambda fr, o, p: o["F4"].grad_c(p["x"]),
    "RegularizedObjective.value_c": lambda fr, o, p: o["G"].value_c(p["x"]),
    "RegularizedObjective.grad_c": lambda fr, o, p: o["G"].grad_c(p["x"]),
    "MappedObjective.value": lambda fr, o, p: o["f"].value(p["xt"]),
    "MappedObjective.grad": lambda fr, o, p: o["f"].grad(p["xt"]),
    "MappedObjective.value_and_grad": lambda fr, o, p: _each_point(o["f"].value_and_grad, p["xt"]),
    "MappedObjective.value-chain": lambda fr, o, p: o["f_chain"].value(p["xt"]),
    "MappedObjective.grad-chain": lambda fr, o, p: o["f_chain"].grad(p["xt"]),
    "MappedObjective.value_and_grad-chain": lambda fr, o, p: _each_point(o["f_chain"].value_and_grad, p["xt"]),
    "to_ball": lambda fr, o, p: to_ball(fr, p["x"]),
    "from_ball": lambda fr, o, p: from_ball(fr, p["xt"]),
    "map_differential": lambda fr, o, p: map_differential(fr, p["x"], p["v"]),
    "pushforward": lambda fr, o, p: pushforward(fr, p["x"], p["v"]),
    "pullback_gradient": lambda fr, o, p: pullback_gradient(fr, p["x"], p["g"]),
    "pullback_gradient-xt": lambda fr, o, p: pullback_gradient(fr, p["x"], p["g"], xt=p["xt"]),
    "mapped_distance": lambda fr, o, p: mapped_distance(fr, p["xt"], p["yt"]),
    "mirror_dual_grad": lambda fr, o, p: _each_point(lambda z: mirror_dual_grad(z, 0.5 * fr.R_tilde), p["xt"]),
}


def _bits(out):
    """The bytes of a kernel's output: an array, or a list of arrays or of (value, gradient) pairs."""
    if isinstance(out, (list, tuple)):
        return b"".join(_bits(o) for o in out)
    return np.asarray(out, dtype=float).tobytes()


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_strided_batches_keep_the_bits(space, kernel):
    """Each layout of each batch, against its C-contiguous copy, for d in {1, 2, 5, 10}."""
    differ = []
    for d in (1, 2, 5, 10):
        frame, objs, pts = _case(space.sign, d)
        for name, layout in LAYOUTS.items():
            strided = {k: layout(a) for k, a in pts.items()}
            assert not any(a.flags.c_contiguous for a in strided.values())
            contiguous = {k: np.ascontiguousarray(a) for k, a in strided.items()}
            if _bits(KERNELS[kernel](frame, objs, strided)) != _bits(KERNELS[kernel](frame, objs, contiguous)):
                differ.append((d, name))
    assert not differ, differ


def _assert_read_only(arrays):
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_axgd_records_share_read_only_iterates(space, traced):
    R = 1.0 if space.sign < 0 else 0.6
    center, F = frechet_instance(space, 3, R, 5, seed=11)
    frame = make_frame(center, R)
    params = params_from_constants(deformation_constants(frame, F.smoothness), frame.R_tilde, 1e-2)
    x0 = np.zeros(3)
    recs = []
    out = axgd.run(MappedObjective(F, frame), params, x0, trace=recs.append if traced else None)
    assert x0.flags.writeable and not x0.any()  # the start is copied, not frozen in place
    _assert_read_only([out])
    if traced:
        assert len(recs) == params.t and out is recs[-1].x
        assert recs[0].x_prev is not x0 and np.array_equal(recs[0].x_prev, x0)
        assert all(b.x_prev is a.x for a, b in zip(recs, recs[1:]))
        _assert_read_only([recs[0].x_prev] + [r.x for r in recs])


def _two_cycle_instance():
    # H^2, one anchor 0.9 from the centre outside the R = 0.5 ball: the clipped
    # iterates settle into two states a few ulps apart.
    space = CurvatureClass.hyperbolic()
    center = pole(2, space)
    a = AmbientPoint(exp_map(center.coords, 0.9 * np.array([math.cos(0.3), math.sin(0.3), 0.0]), -1), space)
    return FrechetObjective([a], [1.0], center, 0.9), center, 0.5


@pytest.mark.parametrize("case", ["moving", "fixed-point", "two-cycle"])
@pytest.mark.parametrize("stride", [1, 7])
def test_rgd_records_hold_read_only_iterates(case, stride):
    """Records of every iteration, of an exact fixed point's tail and of a 2-cycle's tail."""
    if case == "two-cycle":
        F, x0, R = _two_cycle_instance()
        params = RgdParams(1.0 / F.smoothness, 3000, -1.0, stride)
    else:
        x0, F = frechet_instance(CurvatureClass.hyperbolic(), 2, 1.0, 5, seed=7)
        step = (0.01 if case == "moving" else 1.0) / F.smoothness
        params = RgdParams(step, 3000 if case == "fixed-point" else 200, -1.0, stride)
    recs = []
    rgd_run(F, x0, R if case == "two-cycle" else 1.0, params, trace=recs.append)
    assert recs[-1].k == params.max_iters
    if case != "moving":  # the tail repeats its states: the records share their arrays
        assert len({id(r.x) for r in recs}) < len(recs) // 2
    _assert_read_only([r.x for r in recs])
