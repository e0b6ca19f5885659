"""Registry of analytic test fields plus modulus-of-continuity diagnostics.

Every field evaluates vectorized: an (n, 3) array of points yields an (n, 3)
array of values (a single 3-vector is also accepted).  Fields that know
their divergence in closed form carry it along: the curl reference needs
B[div g], and the divergence solve can use it as its right-hand side.

The modulus estimator certifies smoothness claims empirically: it samples
point pairs at controlled separations and records the largest increment per
separation bin.  The resulting table feeds the integral test that separates
fields whose modulus is integrable against d(rho)/rho from those where it
is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import StarDomain, contains, sample_interior, sample_directions

__all__ = [
    "VectorField",
    "ModulusTable",
    "registry_get",
    "registry_names",
    "parse_field",
    "modulus_of_continuity",
    "dini_integral",
]


@dataclass(frozen=True)
class VectorField:
    """An analytic vector field with an optional closed-form divergence.

    smoothness is one of "smooth", "hoelder(a)", "dini", "non-dini"; it is a
    label used by checks to pick tolerances, never trusted blindly (the
    modulus estimator exists to audit it).
    """

    name: str
    eval: callable
    div: callable | None = None
    smoothness: str = "smooth"

    def __call__(self, x):
        return self.eval(x)


def _batched(fn):
    """Lift a (n,3)->(n,...) function to also accept a single point."""
    def wrapped(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return fn(x[None])[0]
        return fn(x)
    return wrapped


_DIV_FREE = _batched(lambda y: np.zeros(y.shape[0]))


def _constant(c1, c2, c3):
    c = np.array([c1, c2, c3], dtype=float)

    def ev(y):
        return np.broadcast_to(c, y.shape).copy()

    return VectorField("constant", _batched(ev), div=_DIV_FREE, smoothness="smooth")


def _rigid():
    def ev(y):
        return np.stack([-y[:, 1], y[:, 0], np.zeros(y.shape[0])], axis=1)

    return VectorField("rigid", _batched(ev), div=_DIV_FREE, smoothness="smooth")


def _abc():
    # Beltrami: curl of this field is the field itself.
    def ev(y):
        return np.stack([np.sin(y[:, 2]) + np.cos(y[:, 1]),
                         np.sin(y[:, 0]) + np.cos(y[:, 2]),
                         np.sin(y[:, 1]) + np.cos(y[:, 0])], axis=1)

    return VectorField("abc", _batched(ev), div=_DIV_FREE, smoothness="smooth")


def _trig():
    def ev(y):
        return np.stack([np.sin(y[:, 2]), np.sin(y[:, 0]), np.sin(y[:, 1])], axis=1)

    return VectorField("trig", _batched(ev), div=_DIV_FREE, smoothness="smooth")


def _hoelder():
    # Each component depends only on another coordinate, so the diagonal
    # derivatives exist (they are zero) even though the field is merely
    # half-Hoelder across the coordinate planes.
    def f(t):
        return np.sqrt(np.abs(t))

    def ev(y):
        return np.stack([f(y[:, 1]), f(y[:, 2]), f(y[:, 0])], axis=1)

    return VectorField("hoelder", _batched(ev), div=_DIV_FREE, smoothness="hoelder(0.5)")


def _nonsol():
    def ev(y):
        out = np.zeros_like(y)
        out[:, 0] = np.sin(y[:, 0])
        return out

    def dv(y):
        return np.cos(y[:, 0])

    return VectorField("nonsol", _batched(ev), div=_batched(dv), smoothness="smooth")


def _nondini():
    # h has modulus ~ 1/(1 - log rho) near 0: continuous, but the integral
    # of h(rho)/rho diverges like log log.  Valid for |t| < e.
    def h(t):
        t = np.abs(t)
        out = np.zeros_like(t)
        m = t > 0
        out[m] = 1.0 / (1.0 - np.log(t[m]))
        return out

    def ev(y):
        return np.stack([h(y[:, 1]), h(y[:, 2]), h(y[:, 0])], axis=1)

    return VectorField("nondini", _batched(ev), div=_DIV_FREE, smoothness="non-dini")


def _bumpcurl():
    """Curl of a bump-shaped vector potential: solenoidal and identically
    zero outside |x| < 1.6, so it is insensitive to everything the ambient
    domain does at its boundary.  The clean reference case for potential
    reconstruction."""
    r0 = 1.6

    def phi_grad(y):
        u = np.sum((y / r0) ** 2, axis=-1)
        g = np.zeros_like(y)
        m = u < 1.0
        f = 1.0 - u[m]
        # d/dy exp(-1/(1-|y/r0|^2))
        g[m] = (-2.0 / (f * f * r0 * r0))[:, None] * y[m] * np.exp(-1.0 / f)[:, None]
        return g

    def ev(y):
        gp = phi_grad(y)
        return np.stack([gp[:, 1], -gp[:, 0], np.zeros(y.shape[0])], axis=1)

    return VectorField("bumpcurl", _batched(ev), div=_DIV_FREE, smoothness="smooth")


_REGISTRY = {
    "constant": _constant,
    "rigid": _rigid,
    "abc": _abc,
    "trig": _trig,
    "hoelder": _hoelder,
    "nonsol": _nonsol,
    "nondini": _nondini,
    "bumpcurl": _bumpcurl,
}


def registry_names():
    return sorted(_REGISTRY)


def registry_get(name: str, *params) -> VectorField:
    """Look up a built-in field; `constant` takes its three components as
    parameters (default (1,0,0))."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown field {name!r}; known: {', '.join(registry_names())}")
    if name == "constant":
        return _constant(*(params if params else (1.0, 0.0, 0.0)))
    if params:
        raise ValueError(f"field {name!r} takes no parameters")
    return _REGISTRY[name]()


def parse_field(spec: str) -> VectorField:
    """Parse a CLI field spec: `rigid`, `constant:1,0,0`."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    if not rest:
        return registry_get(name)
    try:
        params = tuple(float(v) for v in rest.split(","))
    except ValueError as e:
        raise ValueError(f"bad field parameters in {spec!r}") from e
    return registry_get(name, *params)


@dataclass(frozen=True)
class ModulusTable:
    """Sampled modulus of continuity on log-spaced separation bins.

    omega[i] is the largest increment seen over pairs at separation in
    (radii[i]/sqrt(2), radii[i]], corrected to be non-decreasing (a true
    modulus is monotone; sampling noise is not).  The integral fields are
    filled from the default divergence test."""

    radii: np.ndarray
    omega: np.ndarray
    dini_integral: float
    diverging: bool
    n_pairs: int
    seed: int


# Lower limits for the tail test.  The top decade is deliberately excluded:
# at separations near 1e-1 a steep smooth region of a field can still
# dominate the sampled sup, drowning the slow tail that the test is after.
_DEFAULT_RHO_MIN = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def modulus_of_continuity(f, domain: StarDomain, n_pairs: int = 200_000,
                          bins: int = 28, seed: int = 0,
                          rho_min: float = 1e-6) -> ModulusTable:
    """Estimate the modulus of continuity of f over the domain by pair
    sampling.

    For each of `bins` log-spaced separations rho_b, from the diameter down
    to rho_min, draw n_pairs point pairs at distance in (rho_b/sqrt(2),
    rho_b] with both ends inside the domain and record max |f(x)-f(y)| (max
    over components for vector fields).

    A purely uniform draw goes blind at small separations whenever the
    steep increments live on a thin set (think |t|^(1/2) across a plane):
    the chance of landing a pair there scales with rho and the sampled sup
    collapses.  So part of each bin's budget is spent near the extremal
    pair midpoints found one bin coarser; the extremal locus barely moves
    between adjacent scales, and the coarse bins, where uniform sampling is
    reliable, locate it.  The estimate is still an underestimate of the
    true sup by construction; the running-max pass restores monotonicity.
    """
    if n_pairs < 1000:
        raise ValueError("n_pairs must be at least 1000 for a usable sup estimate")
    rng = np.random.default_rng(seed)
    diam = domain.diameter
    radii = np.geomspace(rho_min, diam, bins)
    fv = f.eval if isinstance(f, VectorField) else f
    n_keep = 32
    n_seeded = n_pairs // 3

    omega = np.empty(bins)
    hot = None   # (n_keep, 3) midpoints of the steepest pairs one bin up
    for i in range(bins - 1, -1, -1):
        rho = radii[i]
        x = sample_interior(domain, n_pairs, rng)
        if hot is not None:
            centers = hot[rng.integers(0, len(hot), n_seeded)]
            local = centers + (3.0 * rho) * rng.standard_normal((n_seeded, 3))
            keep = contains(domain, local)
            x[:np.count_nonzero(keep)] = local[keep]
        s = rho * (2.0 ** (-0.5 * rng.random(n_pairs)))   # in (rho/sqrt(2), rho]
        y = x + s[:, None] * sample_directions(n_pairs, rng)
        ok = contains(domain, y)
        if not np.any(ok):
            omega[i] = 0.0
            continue
        diff = np.abs(np.asarray(fv(x[ok])) - np.asarray(fv(y[ok])))
        gap = diff.max(axis=1) if diff.ndim > 1 else diff
        omega[i] = float(gap.max())
        top = np.argpartition(gap, -n_keep)[-n_keep:] if len(gap) > n_keep \
            else np.arange(len(gap))
        hot = 0.5 * (x[ok][top] + y[ok][top])
    omega = np.maximum.accumulate(omega)

    din = dini_integral_from(radii, omega, _DEFAULT_RHO_MIN)
    return ModulusTable(radii=radii, omega=omega, dini_integral=din["value"],
                        diverging=din["diverging"], n_pairs=n_pairs, seed=seed)


def dini_integral_from(radii, omega, rho_min_sequence=_DEFAULT_RHO_MIN):
    """Midpoint rule for int omega(rho)/rho drho = int omega d(log rho) on
    [rho_min, diam], evaluated for a decreasing sequence of lower limits.

    diverging: every extension of the lower limit adds more than half of
    what the previous extension added, i.e. the tail shows no sign of
    summability.  A convergent modulus (say rho^(1/2)) makes the increments
    shrink geometrically instead.
    """
    radii = np.asarray(radii, dtype=float)
    omega = np.asarray(omega, dtype=float)
    seq = sorted(rho_min_sequence, reverse=True)
    if len(seq) < 3:
        raise ValueError("need at least three lower limits to judge the tail")
    logr = np.log(radii)
    # bin spacing in log rho; bins are geometric so spacing is constant
    dlog = np.diff(logr).mean() if len(radii) > 1 else 0.0

    values = []
    for rmin in seq:
        m = radii >= rmin * (1.0 - 1e-12)
        values.append(float(np.sum(omega[m] * dlog)))
    inc = np.diff(values)
    diverging = bool(len(inc) >= 2 and np.all(inc[1:] > 0.5 * inc[:-1]))
    return {"value": values[-1], "diverging": diverging,
            "values": values, "increments": inc.tolist()}


def dini_integral(table: ModulusTable):
    """Tail-divergence test on an existing modulus table."""
    return dini_integral_from(table.radii, table.omega, _DEFAULT_RHO_MIN)
