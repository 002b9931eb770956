"""Hyperbolic upper half-space geometry with Busemann functions.

Points of the half-space model of H^(n+1) are pairs (a, b) with scale
a > 0 and center b in R^n; the metric is ds^2 = (da^2 + |db|^2) / a^2.
For n = 1 this is the upper half-plane with z = b + i a.  Boundary points
are vectors x in R^n together with a distinguished point at infinity.

The Busemann function of a boundary point x, normalized to unit Riemannian
gradient and to vanish at (a, b) = (1, x), has the closed forms

    B_x(a, b)   = log((a^2 + |b - x|^2) / a)        for finite x,
    B_inf(a, b) = -log a.

Geodesics are computed by reducing to the 2-plane spanned by the vertical
direction and the horizontal displacement, an isometrically embedded copy
of H^2, where they are vertical rays or semicircles with feet on the
boundary.

Each formula is written once, as an array kernel on scales a (...) and
centers b (..., n): one point or k points at a time.  The HPoint/HTangent
functions below the kernels wrap them for single points.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .spd import NumericRangeError


class _Infinity:
    """The distinguished boundary point at infinity (a singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"


INFINITY = _Infinity()


def is_infinity(x):
    return isinstance(x, _Infinity)


def _as_center(b):
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.ndim != 1:
        raise ValueError(f"center must be a vector, got shape {b.shape}")
    return b


@dataclass(frozen=True)
class HPoint:
    """Point (a, b) of the upper half-space: scale a > 0, center b in R^n."""

    a: float
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", _as_center(self.b))
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"scale must be positive and finite, got {self.a}")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("center must be finite")

    @property
    def n(self):
        return self.b.shape[0]


@dataclass(frozen=True)
class HTangent:
    """Tangent vector (da, db) at a half-space point."""

    base: HPoint
    da: float
    db: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "da", float(self.da))
        db = np.zeros(self.base.n) if self.db is None else _as_center(self.db)
        object.__setattr__(self, "db", db)
        if db.shape != self.base.b.shape:
            raise ValueError("tangent center component has wrong dimension")
        if not (math.isfinite(self.da) and np.all(np.isfinite(db))):
            raise ValueError("tangent components must be finite")

    def norm(self):
        """Riemannian norm: Euclidean norm of (da, db) divided by the scale."""
        return float(norm_kernel(self.base.a, self.da, self.db))

    def scaled(self, c):
        return HTangent(self.base, c * self.da, c * self.db)


def _boundary_vector(x, n):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise ValueError(f"boundary point has dimension {x.shape}, expected ({n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("finite boundary point must have finite coordinates")
    return x


def median_mad(F):
    """Coordinate-wise median (..., n) and pooled MAD (...) of finite
    observations F (..., N, n): one dataset, or a stack of datasets of
    equal size, each statistic of all of them from one partition.

    The MAD is 1 when it vanishes; with no observation the median is 0.
    """
    lead = F.shape[:-2]
    if F.shape[-2] == 0:
        return np.zeros(lead + F.shape[-1:]), np.ones(lead)[()]
    x = F.copy()
    med = _median(x, axis=-2)
    # the deviations, in the partitioned copy: the MAD pools them, in any order
    x -= med[..., None, :]
    mad = _median(np.abs(x, out=x).reshape(lead + (-1,)), axis=-1)
    return med, np.where(mad > 0, mad, 1.0)[()]


def _median(x, axis=0):
    """np.median(x, axis) from one partition of x, in place.

    np.median partitions twice and imports numpy.ma on its first call.
    """
    x = np.moveaxis(x, axis, 0)
    h = x.shape[0] // 2
    x.partition(h, axis=0)
    if x.shape[0] % 2:
        return x[h].copy()  # not a view that keeps x alive
    return (x[:h].max(axis=0) + x[h]) / 2


def busemann_kernel(a, b, x=None):
    """Busemann values at (a, b) of finite boundary points x, or of infinity (None)."""
    if x is None:
        return -np.log(a)
    return busemann_frame_kernel(a, b, x)[0]


def busemann_grad_kernel(a, b, x=None):
    """Riemannian gradients (da, db) of the Busemann functions of x at (a, b).

    They are a times the unit tangents of `busemann_frame_kernel`, and
    (-a, 0) for infinity.
    """
    if x is None:
        return -a, np.zeros_like(b)
    _, ua, ub = busemann_frame_kernel(a, b, x)
    return a * ua, np.asarray(a)[..., None] * ub


def busemann_frame_kernel(a, b, x):
    """Busemann values at (a, b) of finite boundary points x, and their
    Riemannian gradients (ua, ub) in the orthonormal frame (a d/da, a d/db).

    Each gradient is the unit tangent to the geodesic from x through the
    point, pointing away from x.
    """
    diff = b - x
    r2 = (diff * diff).sum(axis=-1)
    aa = a * a
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = aa + r2
        value = np.log(q / a)
    if not np.isfinite(value).all():
        raise NumericRangeError("Busemann evaluation left the numeric range")
    return value, (aa - r2) / q, (2.0 * a / q)[..., None] * diff


def norm_kernel(a, da, db):
    """Riemannian norms: Euclidean norms of (da, db) divided by the scales."""
    return np.hypot(da, np.sqrt((db * db).sum(axis=-1))) / a


def distance_kernel(a, b, a2, b2):
    """Distances (a, b) to (a2, b2): 2 asinh(|gap| / (2 sqrt(a a2)))."""
    diff = b2 - b
    return _distance(a, a2, (diff * diff).sum(axis=-1))


def _distance(a, a2, s2):
    """`distance_kernel` of points whose centers are s2 apart, squared."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = 2.0 * np.arcsinh(0.5 * np.sqrt((s2 + (a - a2) ** 2) / (a * a2)))
    if not np.isfinite(d).all():
        raise NumericRangeError("distance evaluation left the numeric range")
    return d


def exp_kernel(a, b, da, db, t=1.0):
    """Points at time t on the geodesics from (a, b) with velocities (da, db).

    Raises NumericRangeError when a point reaches the boundary in floats.
    """
    at, bt, out = exp_kernel_masked(a, b, da, db, t)
    if out.any():
        raise NumericRangeError("geodesic point left the numeric range")
    return at, bt


def exp_kernel_masked(a, b, da, db, t=1.0):
    """`exp_kernel` reporting, not raising: (at, bt, out of range).

    The mask is True where a point reached the boundary in floats; the
    other points are exact as `exp_kernel` gives them.
    """
    with np.errstate(all="ignore"):
        vx = np.sqrt((db * db).sum(axis=-1))
        ds = np.hypot(vx, da) / a * t
        still = ds == 0.0
        vertical = vx == 0.0
        w = np.where(vertical, 1.0, vx)
        # Semicircle with center c on the boundary; stable forms avoid atanh
        # of arguments near +-1 when the circle is nearly a vertical line
        # (huge c).
        c = a * da / w
        rho = np.hypot(c, a)
        td = np.tanh(ds)
        den = 1.0 + (-c / rho) * td  # strictly positive in exact arithmetic
        xt = td * a * a / (rho * den)
        at = np.asarray(a / (np.cosh(ds) * den))
        # only where vertical: a ray scales a by exp(t da / a)
        if vertical.any():
            av, dav, tv, up = np.broadcast_arrays(a, da, t, vertical)
            at[up] = av[up] * np.exp(tv[up] * dav[up] / av[up])
        shift = np.where(vertical | still, 0.0, xt)[..., None] * (db / w[..., None])
    # |ds| > 700 overflows cosh: the point degenerates to the boundary
    bad = ~((at > 0.0) & (at < math.inf))
    bad |= ~vertical & ((np.abs(ds) > 700.0) | ~np.isfinite(xt))
    return np.where(still, a, at), b + shift, bad & ~still


def log_kernel(a, b, a2, b2):
    """Tangents (da, db) at (a, b) pointing to (a2, b2), of norm the distance."""
    d, ua, ub = log_frame_kernel(a, b, a2, b2)
    ad = a * d
    return ad * ua, np.asarray(ad)[..., None] * ub


def log_frame_kernel(a, b, a2, b2):
    """Distances d from (a, b) to (a2, b2), and the unit tangents (ua, ub)
    at (a, b) toward them in the orthonormal frame (a d/da, a d/db): the
    log vector is a d (ua, ub).  Between equal points the tangent is 0.

    With z = b + i a and w = b2 + i a2 in the plane of the geodesic, the
    tangent points along i (w - z) conj(w - conj z), which gives
    (|b2 - b|^2 + a2^2 - a^2, 2 a (b2 - b)) with no case for vertical
    geodesics.
    """
    diff = b2 - b
    s2 = (diff * diff).sum(axis=-1)
    d = _distance(a, a2, s2)
    up = s2 + (a2 - a) * (a2 + a)
    twice = 2.0 * a
    norm = np.hypot(up, twice * np.sqrt(s2))
    inv = 1.0 / (norm + (norm == 0.0))  # up and diff vanish where norm does
    return d, up * inv, (twice * inv)[..., None] * diff


def busemann(x, z):
    """Busemann function of the boundary point x evaluated at z."""
    x = None if is_infinity(x) else _boundary_vector(x, z.n)
    return float(busemann_kernel(z.a, z.b, x))


def busemann_grad(x, z):
    """Riemannian gradient of the Busemann function of x at z (a unit tangent)."""
    x = None if is_infinity(x) else _boundary_vector(x, z.n)
    return HTangent(z, *busemann_grad_kernel(z.a, z.b, x))


def distance(z, w):
    """Hyperbolic distance between two points."""
    if z.n != w.n:
        raise ValueError("points live in half-spaces of different dimension")
    return float(distance_kernel(z.a, z.b, w.a, w.b))


def exp_map(z, v, t=1.0):
    """Constant-speed geodesic from z with initial velocity v, evaluated at t.

    Satisfies d(z, exp_map(z, v, t)) = |t| ||v||.  Raises NumericRangeError
    when the point degenerates to the boundary in floating point (extreme t).
    """
    if v.db.shape != z.b.shape:
        raise ValueError("tangent dimension does not match the point")
    if v.norm() * t == 0.0:
        return z
    a, b = exp_kernel(z.a, z.b, v.da, v.db, t)
    return HPoint(a, b)


def log_map(z, w):
    """Tangent v at z with exp_map(z, v, 1) = w and ||v|| = d(z, w)."""
    if z.n != w.n:
        raise ValueError("points live in half-spaces of different dimension")
    return HTangent(z, *log_kernel(z.a, z.b, w.a, w.b))
