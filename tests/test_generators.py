import itertools
import math

import numpy as np
import pytest

from mstdim import generators
from mstdim.errors import InputError, ResourceError
from mstdim.generators import (
    DEFAULT_POINT_BUDGET,
    ShapeFamily,
    builtin_shape,
    generate_grid,
    generate_uniform,
)
from mstdim.metric import Lp, distance


# ------------------------------------------------------------------ uniform


def test_uniform_single_point():
    cloud = generate_uniform(1, 3, seed=0)
    assert cloud.n == 1 and cloud.ambient_dim == 3
    assert np.all((cloud.points >= 0) & (cloud.points <= 1))


def test_uniform_determinism():
    a = generate_uniform(1000, 2, seed=7)
    b = generate_uniform(1000, 2, seed=7)
    assert np.array_equal(a.points, b.points)


def test_uniform_seed_sensitivity():
    a = generate_uniform(1000, 2, seed=7)
    b = generate_uniform(1000, 2, seed=8)
    assert not np.array_equal(a.points, b.points)


def test_uniform_validation():
    with pytest.raises(InputError):
        generate_uniform(0, 2, seed=0)
    with pytest.raises(InputError):
        generate_uniform(5, 0, seed=0)


# --------------------------------------------------------------------- grid


def test_grid_two_points():
    cloud = generate_grid(2, 1)
    assert np.array_equal(cloud.points, [[0.0], [1.0]])


def test_grid_3x3_contains_center():
    cloud = generate_grid(3, 2)
    assert cloud.n == 9
    assert any(np.array_equal(row, [0.5, 0.5]) for row in cloud.points)


def test_grid_4_cubed_min_distance():
    # oracle: enumerate all pairs, min separation is the lattice step 1/3
    cloud = generate_grid(4, 3)
    assert cloud.n == 64
    best = min(
        distance(Lp(2.0), a, b)
        for a, b in itertools.combinations(cloud.points, 2)
    )
    assert best == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_grid_budget():
    with pytest.raises(ResourceError):
        generate_grid(101, 3)  # 101^3 > 10^6


def test_grid_row_major_order():
    cloud = generate_grid(2, 2)
    assert np.array_equal(cloud.points, [[0, 0], [0, 1], [1, 0], [1, 1]])


# ---------------------------------------------------------------------- IFS


def test_cantor_depth_one():
    cloud, _ = builtin_shape("cantor", 1)
    assert np.array_equal(cloud.points, [[0.0], [2.0 / 3.0]])


def test_cantor_depth_zero_is_base_point():
    cloud, _ = builtin_shape("cantor", 0)
    assert np.array_equal(cloud.points, [[0.0]])  # fixed point of the first map


THIRD = 1.0 / 3.0
# name -> (depth, ratio, digit offsets): a digit string o_1..o_k names the
# point sum_i ratio^(i-1) * o_i
DIGIT_ORACLES = {
    "cantor": (9, THIRD, [(0.0,), (2.0 / 3.0,)]),
    "cantor-dust": (5, THIRD, [(a, b) for b in (0.0, 2.0 / 3.0) for a in (0.0, 2.0 / 3.0)]),
    "sierpinski-triangle": (7, 0.5, [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)]),
    "sierpinski-carpet": (
        4,
        THIRD,
        [(i / 3.0, j / 3.0) for i in range(3) for j in range(3) if (i, j) != (1, 1)],
    ),
}


@pytest.mark.parametrize("name", sorted(DIGIT_ORACLES))
def test_ifs_depth_matches_digit_oracle(name):
    # oracle: every digit string, enumerated recursively one coordinate at a
    # time with the same multiply-by-ratio-then-add arithmetic
    depth, ratio, offsets = DIGIT_ORACLES[name]

    def compositions(k):
        if k == 0:
            return [tuple(0.0 for _ in offsets[0])]
        prev = compositions(k - 1)
        return [
            tuple(ratio * x + o for x, o in zip(p, off)) for off in offsets for p in prev
        ]

    points = compositions(depth)
    expected = np.array(sorted(set(points)))
    cloud, known = builtin_shape(name, depth)
    assert len(points) == len(offsets) ** depth == cloud.n  # no two digit strings meet
    assert np.array_equal(cloud.points, expected)
    assert np.all((cloud.points >= 0) & (cloud.points <= 1))
    assert known == math.log(len(offsets)) / math.log(1.0 / ratio)


@pytest.mark.parametrize("name", sorted(generators._IFS) + ["overlapping"])
def test_ifs_points_are_the_sorted_distinct_compositions(name, monkeypatch):
    # oracle: np.unique(axis=0) of every composition; "overlapping" is a
    # system whose images meet, the only one here that repeats points
    overlapping = name == "overlapping"
    if overlapping:
        name = "cantor-dust"
        offsets = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.5], [0.5, 0.5]])
        monkeypatch.setitem(generators._IFS, name, (0.5, offsets))
    ratio, offsets = generators._IFS[name]
    pts = np.zeros((1, offsets.shape[1]))
    for depth in range(5):
        if depth:
            pts = np.concatenate([ratio * pts + offset for offset in offsets])
        expected = np.unique(pts, axis=0)
        assert np.array_equal(builtin_shape(name, depth)[0].points, expected)
    assert (len(expected) < len(pts)) == overlapping


def test_cantor_depth9_smallest_gap():
    cloud, _ = builtin_shape("cantor", 9)
    gaps = np.diff(cloud.points[:, 0])
    assert gaps.min() == pytest.approx(2.0 * 3.0**-9, rel=1e-12)


def test_sierpinski_depth7_count_and_dedup():
    cloud, known = builtin_shape("sierpinski-triangle", 7)
    assert cloud.n == 3**7 == 2187
    assert np.unique(cloud.points, axis=0).shape[0] == cloud.n
    assert known == pytest.approx(math.log(3) / math.log(2), abs=1e-10)


def test_ifs_budget():
    with pytest.raises(ResourceError):
        builtin_shape("cantor", 20)  # 2^20 > 10^6
    with pytest.raises(InputError):
        builtin_shape("cantor", -1)


def test_ifs_points_stay_in_cube():
    for name, size in [
        ("cantor", 8),
        ("cantor-dust", 4),
        ("sierpinski-triangle", 5),
        ("sierpinski-carpet", 3),
    ]:
        cloud, _ = builtin_shape(name, size)
        assert np.all(cloud.points >= 0.0) and np.all(cloud.points <= 1.0)


def test_similarity_dim_equation_all_builtins():
    ratios = {
        "cantor": [1 / 3] * 2,
        "cantor-dust": [1 / 3] * 4,
        "sierpinski-triangle": [0.5] * 3,
        "sierpinski-carpet": [1 / 3] * 8,
    }
    for name, rs in ratios.items():
        _, known = builtin_shape(name, 2)
        assert abs(sum(r**known for r in rs) - 1.0) <= 1e-10


# ----------------------------------------------------------- builtin shapes


def test_builtin_known_dims():
    log = math.log
    cases = {
        "cantor": (9, None, log(2) / log(3), 512),
        "cantor-dust": (4, None, 2 * log(2) / log(3), 256),
        "sierpinski-triangle": (7, None, log(3) / log(2), 2187),
        "sierpinski-carpet": (5, None, log(8) / log(3), 8**5),
        "grid": (32, 2, 2.0, 1024),
        "interval": (100, None, 1.0, 100),
    }
    for name, (size, dim, expected_dim, expected_n) in cases.items():
        cloud, known = builtin_shape(name, size, dim=dim)
        assert cloud.n == expected_n, name
        assert known == pytest.approx(expected_dim, abs=1e-9), name


def test_builtin_shape_errors():
    with pytest.raises(InputError):
        builtin_shape("moebius", 3)
    with pytest.raises(InputError):
        builtin_shape("cantor", 5, dim=2)  # cantor is 1-dimensional
    with pytest.raises(InputError):
        builtin_shape("interval", 100, dim=3)


def test_builtin_determinism():
    a, _ = builtin_shape("uniform-cube", 500, dim=3, seed=7)
    b, _ = builtin_shape("uniform-cube", 500, dim=3, seed=7)
    assert np.array_equal(a.points, b.points)
    c, _ = builtin_shape("sierpinski-carpet", 4)
    d, _ = builtin_shape("sierpinski-carpet", 4)
    assert np.array_equal(c.points, d.points)


# -------------------------------------------------------------- shape family


def test_family_achievable_sizes():
    assert not ShapeFamily("cantor").is_random
    assert not ShapeFamily("grid", dim=2).is_random
    assert ShapeFamily("uniform-cube", dim=2).is_random


def test_family_generate_validates_size():
    fam = ShapeFamily("sierpinski-triangle")
    cloud = fam.generate(81)
    assert cloud.n == 81
    with pytest.raises(InputError):
        fam.generate(80)
    grid = ShapeFamily("grid", dim=2)
    assert grid.generate(49).n == 49
    with pytest.raises(InputError):
        grid.generate(50)


@pytest.mark.parametrize(
    "name, dim, size, arg",
    [
        ("uniform-cube", 3, 300, 300),
        ("grid", 3, 125, 5),
        ("interval", None, 50, 50),
        ("cantor", None, 256, 8),
        ("cantor-dust", None, 256, 4),
        ("sierpinski-triangle", None, 243, 5),
        ("sierpinski-carpet", None, 512, 3),
    ],
)
def test_family_member_is_the_builtin_shape(name, dim, size, arg):
    cloud = ShapeFamily(name, dim).generate(size, seed=5)
    expected, _ = builtin_shape(name, arg, dim, seed=5)
    assert np.array_equal(cloud.points, expected.points)


def test_family_refuses_what_builtin_shape_refuses(monkeypatch):
    with pytest.raises(InputError):
        ShapeFamily("cantor", 2).generate(8)
    with pytest.raises(InputError):
        ShapeFamily("interval", 3).generate(100)
    with pytest.raises(InputError):
        ShapeFamily("moebius")

    # the budget is checked before any point is drawn
    def no_draw(*args):
        raise AssertionError("uniform points drawn over the budget")

    monkeypatch.setattr(generators, "generate_uniform", no_draw)
    with pytest.raises(ResourceError):
        ShapeFamily("uniform-cube").generate(DEFAULT_POINT_BUDGET + 1)
    with pytest.raises(ResourceError):
        builtin_shape("uniform-cube", DEFAULT_POINT_BUDGET + 1)
