import numpy as np
import pytest

from starcurl.geometry import (
    StarDomain,
    ball,
    box,
    boundary_distance,
    contains,
    ellipsoid,
    parse_domain,
    radial,
    radial_from_function,
    radial_gap,
    ray_segments,
    sample_directions,
    sample_interior,
    validate_star_shape,
)
from starcurl.geometry import load_radial_table, save_radial_table

_shapes = [ball(2.0), ellipsoid(2.0, 2.5, 3.0), box(1.5, 1.5, 1.5)]


def test_contains_anchor_points():
    assert contains(ball(2.0), np.zeros(3))
    assert not contains(ball(2.0), np.array([2.0, 0.0, 0.0]))
    assert contains(box(1.5, 1.5, 1.5), np.array([1.4, 1.4, 1.4]))


def test_contains_vectorized(rng):
    dom = ellipsoid(2.0, 2.5, 3.0)
    x = rng.uniform(-3.5, 3.5, size=(200, 3))
    flags = contains(dom, x)
    q = (x[:, 0] / 2.0) ** 2 + (x[:, 1] / 2.5) ** 2 + (x[:, 2] / 3.0) ** 2
    assert np.array_equal(flags, q < 1.0)


def test_scalar_descriptors():
    assert ball(2.0).diameter == 4.0
    assert ball(2.0) == ellipsoid(2.0, 2.0, 2.0)
    assert ellipsoid(2.0, 2.5, 3.0).circumradius == 3.0
    assert ellipsoid(2.0, 2.5, 3.0).inradius == 2.0
    assert box(1.5, 2.0, 2.5).inradius == 1.5
    assert box(1.5, 1.5, 1.5).circumradius == pytest.approx(1.5 * np.sqrt(3.0))


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: ball(1.0),
        lambda: ball(0.5),
        lambda: ellipsoid(1.0, 2.0, 2.0),
        lambda: box(0.8, 2.0, 2.0),
        lambda: StarDomain("pentagon"),
        lambda: ball(float("nan")),
        lambda: ellipsoid(2.0, float("nan"), 2.0),
    ],
)
def test_unit_ball_containment_enforced(ctor):
    with pytest.raises(ValueError):
        ctor()


def test_ray_segments_anchors():
    along_x = np.array([[1.0, 0.0, 0.0]])
    cross = ray_segments(ball(2.0), np.zeros(3), along_x, np.array([5.0]))
    assert cross.shape == (1, 1)
    assert cross[0, 0] == pytest.approx(2.0, abs=1e-12)

    cross = ray_segments(ball(2.0), np.array([3.0, 0.0, 0.0]), -along_x,
                         np.array([10.0]))
    assert cross[0] == pytest.approx([1.0, 5.0], abs=1e-12)

    cross = ray_segments(ellipsoid(2.0, 3.0, 4.0), np.zeros(3),
                         np.array([[0.0, 0.0, 1.0]]), np.array([10.0]))
    assert cross.shape == (1, 1)
    assert cross[0, 0] == pytest.approx(4.0, abs=1e-12)

    # rays parallel to two slabs of the box: inside both, or outside one
    # (no crossing: the row is all padding, t_max)
    cross = ray_segments(box(1.5, 1.5, 1.5), np.zeros(3), along_x, np.array([5.0]))
    assert cross.shape == (1, 1)
    assert cross[0, 0] == pytest.approx(1.5, abs=1e-12)
    cross = ray_segments(box(1.5, 1.5, 1.5), np.array([0.0, 2.0, 0.0]), along_x,
                         np.array([5.0]))
    assert np.all(cross == 5.0)


def test_ray_segments_rejects_non_unit_direction():
    u = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        ray_segments(ball(2.0), np.zeros(3), u, np.array([5.0, 5.0]))


def _check_alternation(dom, x, u, t_max, cross):
    """Rows increase inside (0, t_max] and are padded with t_max; between
    consecutive crossings the midpoints alternate inside and outside,
    starting from contains(x).  Returns the crossing count of each ray."""
    assert cross.shape[0] == u.shape[0] and cross.shape[1] >= 1
    counts = []
    for i in range(u.shape[0]):
        row = cross[i]
        assert np.all(row > 0.0) and np.all(row <= t_max[i])
        assert np.all(np.diff(row) >= 0.0)
        assert np.all(row[row >= t_max[i]] == t_max[i])
        edges = np.concatenate([[0.0], row[row < t_max[i]], [t_max[i]]])
        inside = bool(contains(dom, x))
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo > 1e-9:
                assert contains(dom, x + 0.5 * (lo + hi) * u[i]) == inside
            inside = not inside
        counts.append(edges.size - 2)
    return np.array(counts)


@pytest.mark.parametrize("dom", _shapes)
def test_ray_segment_membership(dom, rng):
    for _ in range(100):
        x = rng.uniform(-4.0, 4.0, size=3)
        u = sample_directions(10, rng)
        t_max = rng.uniform(0.5, 8.0, size=10)
        counts = _check_alternation(dom, x, u, t_max, ray_segments(dom, x, u, t_max))
        assert np.all(counts <= 2)
        if contains(dom, x):
            assert np.all(counts <= 1)


def test_ray_segment_membership_radial(rng):
    # waisted at the equator: rays from the upper lobe can leave the
    # domain and come back in
    dom = radial_from_function(lambda u: 1.1 + 2.5 * u[..., 2] ** 4, 48, 96)
    most = 0
    for _ in range(40):
        x = rng.uniform(-3.0, 3.0, size=3)
        u = sample_directions(10, rng)
        t_max = np.full(10, 6.0)
        counts = _check_alternation(dom, x, u, t_max, ray_segments(dom, x, u, t_max))
        most = max(most, counts.max())
    x = np.array([1.2, 0.0, 1.7])
    u = sample_directions(200, rng)
    t_max = np.full(200, 6.0)
    counts = _check_alternation(dom, x, u, t_max, ray_segments(dom, x, u, t_max))
    assert max(most, counts.max()) >= 3


@pytest.mark.parametrize("dom", _shapes)
def test_validate_star_shape_convex(dom):
    violations, witnesses = validate_star_shape(dom, n_samples=10_000, seed=0)
    assert violations == 0
    assert witnesses == []


def test_validate_star_shape_flags_sharp_spike():
    spike = radial_from_function(
        lambda u: 1.2 + 1.5 * np.maximum(0.0, u[..., 2]) ** 40,
        n_polar=64,
        n_azimuth=128,
    )
    violations, witnesses = validate_star_shape(spike, n_samples=10_000, seed=0)
    assert violations > 0
    b, z, t = witnesses[0]
    assert not contains(spike, b + t * (z - b))


def test_boundary_distance_directional():
    dom = ellipsoid(2.0, 2.5, 3.0)
    assert boundary_distance(dom, np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0)
    assert boundary_distance(dom, np.array([0.0, 0.0, 1.0])) == pytest.approx(3.0)


def test_radial_gap_anchor():
    dom = ball(2.0)
    assert radial_gap(dom, np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    pts = np.array([[0.5, 0.0, 0.0], [0.0, 1.9, 0.0]])
    gaps = radial_gap(dom, pts)
    assert gaps == pytest.approx([1.5, 0.1])


@pytest.mark.parametrize("bad", ["sphere:R0=2", "ball:radius=2", "box:h=1.5,1.5", "ball"])
def test_domain_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_domain(bad)


def test_radial_table_file_round_trip(tmp_path):
    dom = radial_from_function(lambda u: 1.5 + 0.2 * u[..., 0] ** 2)
    path = tmp_path / "table.csv"
    save_radial_table(dom, str(path))
    back = load_radial_table(str(path))
    assert np.allclose(back.table[2], dom.table[2], rtol=0.0, atol=0.0)
    via_spec = parse_domain(f"radial:file={path}")
    assert np.allclose(via_spec.table[2], dom.table[2])
    # the file holds only the grid sizes, so another grid cannot be stored
    odd = radial(np.linspace(0.99, -0.99, 8),
                 2.0 * np.pi * np.arange(16) / 16, np.full((8, 16), 1.5))
    other = tmp_path / "odd.csv"
    with pytest.raises(ValueError, match="standard"):
        save_radial_table(odd, str(other))
    assert not other.exists()


def test_sample_interior_margin(rng):
    dom = ball(2.0)
    pts = sample_interior(dom, 500, rng, margin=0.3)
    assert np.all(contains(dom, pts))
    assert np.min(radial_gap(dom, pts)) >= 0.3 - 1e-12


def test_sample_interior_rejects_an_impossible_margin(rng):
    with pytest.raises(ValueError, match="margin 5"):
        sample_interior(ball(2.0), 1, rng, margin=5.0)


def test_sample_directions_unit(rng):
    u = sample_directions(300, rng)
    assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) < 1e-12
