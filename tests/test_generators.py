import itertools
import math

import numpy as np
import pytest

from mstdim.errors import InputError, ResourceError
from mstdim.generators import (
    IfsSystem,
    SimilarityMap,
    builtin_shape,
    generate_grid,
    generate_ifs_depth,
    generate_uniform,
    shape_family,
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


def cantor_system():
    return IfsSystem(
        maps=(SimilarityMap(1 / 3, (0.0,)), SimilarityMap(1 / 3, (2 / 3,))),
        ambient_dim=1,
    )


def test_cantor_depth_one():
    cloud = generate_ifs_depth(cantor_system(), 1)
    assert np.array_equal(cloud.points, [[0.0], [2.0 / 3.0]])


def test_cantor_depth_zero_is_base_point():
    cloud = generate_ifs_depth(cantor_system(), 0)
    assert np.array_equal(cloud.points, [[0.0]])  # fixed point of map 0


def test_cantor_depth9_matches_digit_oracle():
    # oracle: the points are exactly the base-3 numbers with digits {0, 2},
    # enumerated recursively with the same multiply-by-ratio arithmetic
    def compositions(depth):
        if depth == 0:
            return [0.0]
        prev = compositions(depth - 1)
        third = 1.0 / 3.0
        return [p * third for p in prev] + [p * third + 2.0 / 3.0 for p in prev]

    expected = np.array(sorted(compositions(9))).reshape(-1, 1)
    cloud = generate_ifs_depth(cantor_system(), 9)
    assert cloud.n == 512
    assert np.array_equal(cloud.points, expected)
    assert np.all((cloud.points >= 0) & (cloud.points <= 1))
    # smallest gap between sorted points is 2/3^9
    gaps = np.diff(cloud.points[:, 0])
    assert gaps.min() == pytest.approx(2.0 * 3.0**-9, rel=1e-12)


def test_sierpinski_depth7_count_and_dedup():
    cloud, known = builtin_shape("sierpinski-triangle", 7)
    assert cloud.n == 3**7 == 2187
    assert np.unique(cloud.points, axis=0).shape[0] == cloud.n
    assert known == pytest.approx(math.log(3) / math.log(2), abs=1e-10)


def test_ifs_budget():
    with pytest.raises(ResourceError):
        generate_ifs_depth(cantor_system(), 21)  # 2^21 > 10^6


def test_ifs_points_stay_in_cube():
    for name, size in [
        ("cantor", 8),
        ("cantor-dust", 4),
        ("sierpinski-triangle", 5),
        ("sierpinski-carpet", 3),
    ]:
        cloud, _ = builtin_shape(name, size)
        assert np.all(cloud.points >= 0.0) and np.all(cloud.points <= 1.0)


def test_ifs_rejects_map_leaving_cube():
    with pytest.raises(InputError):
        IfsSystem(
            maps=(SimilarityMap(0.5, (0.0,)), SimilarityMap(0.5, (0.7,))),
            ambient_dim=1,
        )


def test_ifs_rejects_single_map():
    with pytest.raises(InputError):
        IfsSystem(maps=(SimilarityMap(0.5, (0.0,)),), ambient_dim=1)


def test_similarity_map_validation():
    with pytest.raises(InputError):
        SimilarityMap(1.0, (0.0,))
    with pytest.raises(InputError):
        SimilarityMap(0.5, (0.0,), orthogonal=((2.0,),))


def test_rotated_map_fixed_point_and_cube_check():
    # quarter-turn similarity centered inside the cube
    rot = ((0.0, -1.0), (1.0, 0.0))
    m = SimilarityMap(0.5, (0.6, 0.2), orthogonal=rot)
    fp = m.fixed_point()
    assert np.allclose(m.apply(fp.reshape(1, -1))[0], fp, atol=1e-14)
    system = IfsSystem(maps=(m, SimilarityMap(0.25, (0.0, 0.0))), ambient_dim=2)
    cloud = generate_ifs_depth(system, 6)
    assert np.all(cloud.points >= -1e-12) and np.all(cloud.points <= 1 + 1e-12)


# ------------------------------------------------ similarity dimension root


def test_similarity_dim_equation_all_builtins():
    for name in ("cantor", "cantor-dust", "sierpinski-triangle", "sierpinski-carpet"):
        cloud, known = builtin_shape(name, 2)
        # recover the system's ratio list from the name
        ratios = {
            "cantor": [1 / 3] * 2,
            "cantor-dust": [1 / 3] * 4,
            "sierpinski-triangle": [0.5] * 3,
            "sierpinski-carpet": [1 / 3] * 8,
        }[name]
        total = sum(r**known for r in ratios)
        assert abs(total - 1.0) <= 1e-10


def test_similarity_dim_uneven_ratios():
    # oracle: ratios 1/2 and 1/4 give x + x^2 = 1 with x = 2^-s,
    # so s = log2((1 + sqrt 5) / 2)
    system = IfsSystem(
        maps=(SimilarityMap(0.5, (0.0,)), SimilarityMap(0.25, (0.75,))),
        ambient_dim=1,
    )
    expected = math.log2((1.0 + math.sqrt(5.0)) / 2.0)
    assert system.similarity_dim == pytest.approx(expected, abs=1e-10)


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
    assert not shape_family("cantor").is_random
    assert not shape_family("grid", dim=2).is_random
    assert shape_family("uniform-cube", dim=2).is_random


def test_family_generate_validates_size():
    fam = shape_family("sierpinski-triangle")
    cloud = fam.generate(81)
    assert cloud.n == 81
    with pytest.raises(InputError):
        fam.generate(80)
    grid = shape_family("grid", dim=2)
    assert grid.generate(49).n == 49
    with pytest.raises(InputError):
        grid.generate(50)
