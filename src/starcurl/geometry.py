"""Star-shaped domains and the ray geometry used by the singular quadrature.

Every domain here is star-shaped with respect to the closed unit ball
centered at the origin: for any z in the domain and any b with |b| <= 1
the whole segment [b, z] stays inside.  That containment requirement is
what makes the integral kernels vanish identically outside the domain.
Construction enforces it for ellipsoids and boxes, which are convex and
contain the unit ball once every semi-axis or half-width exceeds 1.  A
radial table is only checked for min r > 1, which does not make it star-
shaped: the waisted table r = 1.1 + 2.5 u_z^4 constructs, and
validate_star_shape (``starcurl validate-domain``) finds segments [b, z]
that leave it.  That sampled check is the audit for tables.

Supported shapes:

* ``ellipsoid``  semi-axes a, b, c, all > 1; ``ball(r0)`` is the one with
                 three equal semi-axes r0
* ``box``        half-widths h1, h2, h3, all > 1
* ``radial``     boundary radius r(u) tabulated over a product sphere
                 grid, min r > 1; interpolated bilinearly in (theta, phi)

Membership is strict: boundary points count as outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StarDomain",
    "ball",
    "ellipsoid",
    "box",
    "radial",
    "radial_from_function",
    "parse_domain",
    "contains",
    "boundary_distance",
    "radial_gap",
    "ray_segments",
    "validate_star_shape",
    "sample_interior",
    "sample_directions",
]

@dataclass(frozen=True)
class StarDomain:
    """A bounded domain star-shaped w.r.t. the closed unit ball at the origin.

    ``kind`` is one of ``ellipsoid``, ``box``, ``radial``; a ball is the
    ellipsoid with three equal semi-axes.
    ``params`` holds the shape parameters; for ``radial`` the table of
    boundary radii lives in ``table`` with its (theta, phi) grid.
    """

    kind: str
    params: tuple = ()
    # radial tables: cos(theta) rows (descending theta grid not required),
    # phi columns, and the n_polar x n_azimuth radius values.
    table: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.kind not in ("ellipsoid", "box", "radial"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "radial":
            if np.min(self.table[2]) <= 1.0:
                raise ValueError("radial table must stay above 1 everywhere")
        elif not all(p > 1.0 for p in self.params):   # NaN fails too
            what = "semi-axes" if self.kind == "ellipsoid" else "half-widths"
            raise ValueError(f"{self.kind} {what} must exceed 1")

    # -- scalar geometric descriptors -------------------------------------

    @property
    def circumradius(self) -> float:
        if self.kind == "ellipsoid":
            return max(self.params)
        if self.kind == "box":
            return math.sqrt(sum(h * h for h in self.params))
        return float(np.max(self.table[2]))

    @property
    def inradius(self) -> float:
        if self.kind in ("ellipsoid", "box"):
            return min(self.params)
        return float(np.min(self.table[2]))

    @property
    def diameter(self) -> float:
        return 2.0 * self.circumradius


# -- constructors ----------------------------------------------------------


def ball(r0: float) -> StarDomain:
    """The ball of radius r0 about the origin: the ellipsoid with three equal
    semi-axes."""
    return ellipsoid(r0, r0, r0)


def ellipsoid(a: float, b: float, c: float) -> StarDomain:
    return StarDomain("ellipsoid", (float(a), float(b), float(c)))


def box(h1: float, h2: float, h3: float) -> StarDomain:
    return StarDomain("box", (float(h1), float(h2), float(h3)))


def radial(cos_theta: np.ndarray, phi: np.ndarray, rvals: np.ndarray) -> StarDomain:
    """Radial domain from a boundary-radius table.

    ``cos_theta`` must be strictly decreasing (north to south pole),
    ``phi`` strictly increasing in [0, 2*pi), ``rvals`` shaped
    (len(cos_theta), len(phi)).
    """
    ct = np.asarray(cos_theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    rv = np.asarray(rvals, dtype=float)
    _check_grid(ct.size, ph.size)
    if rv.shape != (ct.size, ph.size):
        raise ValueError("radius table shape does not match the angular grid")
    if np.any(np.diff(ct) >= 0):
        raise ValueError("cos_theta rows must be strictly decreasing")
    if np.any(np.diff(ph) <= 0):
        raise ValueError("phi columns must be strictly increasing")
    return StarDomain("radial", table=(ct, ph, rv))


def _check_grid(n_polar: int, n_azimuth: int) -> None:
    """Interpolation in theta needs a pair of rows, in phi one column."""
    if n_polar < 2 or n_azimuth < 1:
        raise ValueError(f"radial table grid {n_polar} x {n_azimuth} needs at "
                         "least 2 cos(theta) rows and 1 phi column")


def _standard_grid(n_polar: int, n_azimuth: int):
    """The angular grid of tabulated and stored radial tables: Gauss-Legendre
    rows in cos(theta), descending (north pole first), and uniform phi
    columns from 0."""
    _check_grid(n_polar, n_azimuth)
    ct, _ = np.polynomial.legendre.leggauss(n_polar)
    return ct[::-1], 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth


def radial_from_function(fn, n_polar: int = 32, n_azimuth: int = 64) -> StarDomain:
    """Tabulate r(u) = fn(u) over a Gauss-Legendre x uniform angular grid."""
    ct, ph = _standard_grid(n_polar, n_azimuth)
    st = np.sqrt(np.maximum(0.0, 1.0 - ct**2))
    u = np.empty((n_polar, n_azimuth, 3))
    u[..., 0] = st[:, None] * np.cos(ph)[None, :]
    u[..., 1] = st[:, None] * np.sin(ph)[None, :]
    u[..., 2] = ct[:, None] * np.ones_like(ph)[None, :]
    rv = np.asarray(fn(u), dtype=float)
    return radial(ct, ph, rv)


# -- domain spec strings ---------------------------------------------------


def parse_domain(spec: str) -> StarDomain:
    """Parse compact domain descriptions.

    Accepted forms::

        ball:R0=2
        ellipsoid:a=2,b=2.5,c=3
        box:h=1.5,1.5,1.5
        radial:file=<path>
    """
    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "ball":
            kv = _parse_kv(rest)
            return ball(float(kv["r0"]))
        if kind == "ellipsoid":
            kv = _parse_kv(rest)
            return ellipsoid(float(kv["a"]), float(kv["b"]), float(kv["c"]))
        if kind == "box":
            kv = _parse_kv(rest, listy=("h",))
            h = [float(t) for t in kv["h"]]
            if len(h) != 3:
                raise ValueError("box needs three half-widths")
            return box(*h)
        if kind == "radial":
            kv = _parse_kv(rest)
            return load_radial_table(kv["file"])
    except KeyError as exc:
        raise ValueError(f"domain spec {spec!r} is missing parameter {exc}") from exc
    raise ValueError(f"unknown domain kind in spec {spec!r}")


def _parse_kv(rest: str, listy=()):
    """key=value pairs separated by commas; ``listy`` keys swallow bare
    comma-separated values that follow them (box:h=1.5,1.5,1.5)."""
    out = {}
    pending = None
    for tok in rest.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "=" in tok:
            k, _, v = tok.partition("=")
            k = k.strip().lower()
            if k in listy:
                out[k] = [v.strip()]
                pending = k
            else:
                out[k] = v.strip()
                pending = None
        elif pending is not None:
            out[pending].append(tok)
        else:
            raise ValueError(f"cannot parse domain parameter token {tok!r}")
    return out


def load_radial_table(path: str) -> StarDomain:
    """Read a radial table file: first line ``n_polar,n_azimuth``, then one
    radius per line in polar-major order over the standard grid
    (Gauss-Legendre rows in cos(theta), uniform phi columns)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        n_polar, n_azimuth = (int(t) for t in header.strip().split(","))
        grid = _standard_grid(n_polar, n_azimuth)
        vals = np.loadtxt(fh, dtype=float, ndmin=1)
    if vals.size != n_polar * n_azimuth:
        raise ValueError(
            f"radial table holds {vals.size} values, expected {n_polar * n_azimuth}"
        )
    return radial(*grid, vals.reshape(n_polar, n_azimuth))


def save_radial_table(dom: StarDomain, path: str) -> None:
    """Write a radial table in load_radial_table's format.  The file stores
    only the grid sizes, so a table on any other angular grid is refused
    rather than reloaded onto the standard one."""
    ct, ph, rv = dom.table
    std_ct, std_ph = _standard_grid(ct.size, ph.size)
    if not (np.array_equal(ct, std_ct) and np.array_equal(ph, std_ph)):
        raise ValueError("radial table is not on the standard Gauss-Legendre x "
                         "uniform grid, which is all its file format can hold")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{ct.size},{ph.size}\n")
        for v in rv.ravel():
            fh.write(f"{v:.17g}\n")


# -- membership ------------------------------------------------------------


def contains(dom: StarDomain, x) -> np.ndarray:
    """Strict membership test, vectorized over the leading axes of ``x``.

    Points on the boundary are reported as outside.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)
    if dom.kind == "ellipsoid":
        ax = np.asarray(dom.params)
        q = pts / ax
        out = np.einsum("...i,...i->...", q, q) < 1.0
    elif dom.kind == "box":
        h = np.asarray(dom.params)
        out = np.all(np.abs(pts) < h, axis=-1)
    else:
        r = np.linalg.norm(pts, axis=-1)
        out = np.empty(r.shape, dtype=bool)
        tiny = r < 1e-300
        out[tiny] = True  # the origin is interior (min table radius > 1)
        if np.any(~tiny):
            u = pts[~tiny] / r[~tiny][..., None]
            out[~tiny] = r[~tiny] < _radial_boundary(dom, u)
    return out[0] if scalar else out.reshape(x.shape[:-1])


def boundary_distance(dom: StarDomain, u) -> np.ndarray:
    """Distance from the origin to the boundary along unit direction(s) u."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 1
    uu = np.atleast_2d(u)
    if dom.kind == "ellipsoid":
        ax = np.asarray(dom.params)
        q = uu / ax
        out = 1.0 / np.sqrt(np.einsum("...i,...i->...", q, q))
    elif dom.kind == "box":
        h = np.asarray(dom.params)
        with np.errstate(divide="ignore"):
            t = np.where(np.abs(uu) > 1e-300, h / np.abs(uu), np.inf)
        out = np.min(t, axis=-1)
    else:
        out = _radial_boundary(dom, uu)
    return out[0] if scalar else out.reshape(u.shape[:-1])


def radial_gap(dom: StarDomain, x) -> np.ndarray:
    """Radial clearance of interior points: boundary_distance(x/|x|) - |x|,
    vectorized over leading axes.  This is the true distance to the boundary
    for balls and the star-ray surrogate for other shapes; every margin test
    in the package uses this one convention (matching sample_interior), so
    margins compose.  Negative for points radially past the boundary."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)
    r = np.linalg.norm(pts, axis=-1)
    gap = np.empty(r.shape)
    tiny = r < 1e-300
    gap[tiny] = boundary_distance(dom, np.array([0.0, 0.0, 1.0])) if np.any(tiny) else 0.0
    if np.any(~tiny):
        u = pts[~tiny] / r[~tiny][..., None]
        gap[~tiny] = boundary_distance(dom, u) - r[~tiny]
    return gap[0] if scalar else gap.reshape(x.shape[:-1])


def _radial_boundary(dom: StarDomain, u: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of the radius table in (theta, phi)."""
    ct_grid, ph_grid, rv = dom.table
    ct = np.clip(u[..., 2], -1.0, 1.0)
    ph = np.mod(np.arctan2(u[..., 1], u[..., 0]), 2.0 * np.pi)

    # theta rows: ct_grid is strictly decreasing; clamp beyond the poles.
    asc = ct_grid[::-1]
    j = np.searchsorted(asc, ct, side="right")
    j = np.clip(j, 1, asc.size - 1)
    c_lo = asc[j - 1]
    c_hi = asc[j]
    w = np.clip((ct - c_lo) / (c_hi - c_lo), 0.0, 1.0)
    row_hi = ct_grid.size - 1 - j          # row with larger cos(theta)
    row_lo = ct_grid.size - j

    # phi columns with periodic wrap; uniform grid assumed for the wrap cell.
    k = np.searchsorted(ph_grid, ph, side="right") - 1
    k = np.clip(k, 0, ph_grid.size - 1)
    k_next = (k + 1) % ph_grid.size
    ph_lo = ph_grid[k]
    span = np.where(k_next == 0, 2.0 * np.pi - ph_lo + ph_grid[0], ph_grid[k_next] - ph_lo)
    v = np.clip((ph - ph_lo) / span, 0.0, 1.0)

    r00 = rv[row_lo, k]
    r01 = rv[row_lo, k_next]
    r10 = rv[row_hi, k]
    r11 = rv[row_hi, k_next]
    return (1 - w) * ((1 - v) * r00 + v * r01) + w * ((1 - v) * r10 + v * r11)


# -- ray segmentation ------------------------------------------------------


def ray_segments(dom: StarDomain, x, u, t_max) -> np.ndarray:
    """Where the rays x + t u (one per row of the unit directions ``u``, t in
    (0, t_max) with one t_max per ray) cross the boundary.

    Returns an (n, k) array, k >= 1: row i holds the crossings of ray i in
    increasing order, padded with t_max[i].  From an interior point of a
    ellipsoid or box every ray crosses once, so k = 1 and the row is the
    exit.  Closed-form for ellipsoids and boxes; a membership scan plus
    bisection (to 1e-10 in t) for radial tables, whose rays may leave the
    domain and come back.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    t_max = np.asarray(t_max, dtype=float)
    if np.any(np.abs(np.linalg.norm(u, axis=1) - 1.0) > 1e-12):
        raise ValueError("ray directions must be unit vectors")
    if dom.kind == "radial":
        return _scan_crossings(dom, x, u, t_max)
    hi = _convex_exit(dom, x, u)
    if contains(dom, x):
        return np.minimum(hi, t_max)[:, None]
    # the line enters where the reversed line exits; a line parallel to a
    # box slab that it lies outside of fails the midpoint test
    lo = -_convex_exit(dom, x, -u)
    a, b = np.maximum(lo, 0.0), np.minimum(hi, t_max)
    hit = (b > a) & contains(dom, x + 0.5 * (a + b)[:, None] * u)
    cross = np.stack([lo, hi], axis=1)
    keep = hit[:, None] & (cross > 0.0) & (cross < t_max[:, None])
    return np.sort(np.where(keep, cross, t_max[:, None]), axis=1)


def _convex_exit(dom: StarDomain, x, u):
    """Distance along each line x + t u (one per row of the unit directions
    ``u``) to where it leaves an ellipsoid or box, as an (n,) array.  It
    may be negative; a line that misses an ellipsoid gets the distance to
    its point nearest the domain."""
    if dom.kind == "ellipsoid":
        # |diag(inv_ax) (x + t u)| < 1
        inv_ax = 1.0 / np.asarray(dom.params)
        xs = x * inv_ax
        us = u * inv_ax
        a = np.einsum("ij,ij->i", us, us)
        b = us @ xs
        c = float(xs @ xs) - 1.0
        disc = np.maximum(b * b - a * c, 0.0)
        return (-b + np.sqrt(disc)) / a
    h = np.asarray(dom.params)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-h - x) / u
        t2 = (h - x) / u
        t_hi = np.where(np.abs(u) > 1e-300, np.maximum(t1, t2), np.inf)
    return np.min(t_hi, axis=1)


_N_SCAN = 256
_SCAN_TOL = 1e-10


def _scan_crossings(dom, x, u, t_max):
    """Membership scan of every ray at _N_SCAN + 1 equispaced points, then
    bisection of all brackets together; each bracket halves until it is
    _SCAN_TOL wide and its midpoint is the crossing."""
    t = np.linspace(0.0, t_max, _N_SCAN + 1, axis=1)           # (n, N+1)
    inside = contains(dom, x + t[..., None] * u[:, None, :])
    ray, k = np.nonzero(inside[:, :-1] != inside[:, 1:])
    lo, hi = t[ray, k], t[ray, k + 1]
    lo_inside = inside[ray, k]
    i = np.flatnonzero(hi - lo > _SCAN_TOL)
    while i.size:
        mid = 0.5 * (lo[i] + hi[i])
        stay = contains(dom, x + mid[:, None] * u[ray[i]]) == lo_inside[i]
        lo[i[stay]], hi[i[~stay]] = mid[stay], mid[~stay]
        i = i[hi[i] - lo[i] > _SCAN_TOL]
    # column k holds the crossing in scan cell k; sorting moves the padding
    # behind the crossings
    out = np.repeat(t_max[:, None], _N_SCAN, axis=1)
    out[ray, k] = 0.5 * (lo + hi)
    return np.sort(out, axis=1)[:, :max(np.bincount(ray).max(initial=0), 1)]


# -- star-shape validation -------------------------------------------------


_N_CHECKS = 16          # points tested on each sampled segment [b, z]
_MAX_WITNESSES = 100


def validate_star_shape(dom: StarDomain, n_samples: int = 10_000, seed: int = 0):
    """Sampled check of star-shapedness w.r.t. the closed unit ball.

    Draws pairs (b, z) with b uniform in the closed unit ball and z uniform
    in the domain, then tests _N_CHECKS equispaced points of the segment
    [b, z] for membership (endpoints included; both lie inside by
    construction).  Returns (violation_count, witnesses) where witnesses is
    a list of at most _MAX_WITNESSES (b, z, t) triples for failing
    parameters t.
    """
    rng = np.random.default_rng(seed)
    b = _uniform_ball(rng, n_samples, 1.0)
    z = sample_interior(dom, n_samples, rng)
    t = np.linspace(0.0, 1.0, _N_CHECKS)
    pts = b[:, None, :] + t[None, :, None] * (z - b)[:, None, :]
    ok = contains(dom, pts.reshape(-1, 3)).reshape(n_samples, _N_CHECKS)
    # endpoint b may sit exactly on |b| = 1 which is interior to the domain
    # (min boundary radius > 1), so strict membership holds there too.
    bad = ~ok
    violations = int(np.count_nonzero(np.any(bad, axis=1)))
    witnesses = []
    if violations:
        idx = np.nonzero(np.any(bad, axis=1))[0][:_MAX_WITNESSES]
        for i in idx:
            kfail = int(np.nonzero(bad[i])[0][0])
            witnesses.append((b[i].copy(), z[i].copy(), float(t[kfail])))
    return violations, witnesses


def _uniform_ball(rng, n, radius):
    pts = np.empty((n, 3))
    got = 0
    while got < n:
        cand = rng.uniform(-radius, radius, size=(2 * (n - got) + 16, 3))
        keep = cand[np.einsum("ij,ij->i", cand, cand) <= radius * radius]
        take = min(n - got, keep.shape[0])
        pts[got:got + take] = keep[:take]
        got += take
    return pts


def sample_interior(dom: StarDomain, n: int, rng, margin: float = 0.0) -> np.ndarray:
    """Uniform interior points by rejection from the circumball.

    ``margin`` keeps a radial gap to the boundary: points x with
    radial_gap(x) <= margin are rejected.  A margin that rejects every
    candidate of 1000 draws is a ValueError.
    """
    rad = dom.circumradius
    pts = np.empty((n, 3))
    got = 0
    attempts = 0
    while got < n:
        attempts += 1
        if attempts > 1000:
            raise ValueError(f"no interior point with radial clearance above "
                             f"margin {margin} in 1000 draws")
        cand = _uniform_ball(rng, 2 * (n - got) + 16, rad)
        keep = cand[contains(dom, cand)]
        if margin > 0.0:
            keep = keep[radial_gap(dom, keep) > margin]
        take = min(n - got, keep.shape[0])
        pts[got:got + take] = keep[:take]
        got += take
    return pts


def sample_directions(n: int, rng) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)
