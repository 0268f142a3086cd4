"""Diffusion scenarios: coefficient fields, derivatives, and geometry.

All coefficient callbacks are batched: a point argument has shape (B, n)
and outputs carry the leading batch axis (X -> (B, n, m), drifts -> (B, n),
scalars -> (B,)).  Derivatives are directional: DX(x, v) is the derivative
of X at x in direction v, D2X(x, u, v) the second derivative, and so on.
``paths.simulate`` passes Fortran-ordered (B, n) states and fields, so
``x[..., i]`` is a contiguous column; the built-in callbacks return arrays
in that order.

A field that is identically zero returns the scalar ``0.0`` rather than an
array of zeros.  The kernels (the Euler step, the variation and Hessian
flows, the flat Hessian correction) add their terms through ``add_terms``,
which skips it; every other reader broadcasts it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import Degenerate, DimensionMismatch, MissingDerivative

_RIGHT_INVERSE_COND_TOL = 1e-12


def add_terms(*terms):
    """The terms added left to right, skipping every scalar zero: ``0.0`` if all are.

    The kept terms are added in their order and never re-associated, so the
    sum has the bits of the full sum (a zero's sign aside), and a sum of one
    kept array is that array itself, not a copy.
    """
    total = None
    for term in terms:
        if isinstance(term, (float, int)) and term == 0:
            continue
        total = term if total is None else total + term
    return 0.0 if total is None else total


def make_dot(n):
    """Batched ambient dot product: the n products summed in index order.

    The fixed order gives the same bits in any memory layout and batch size;
    ``np.einsum`` sums rows that are contiguous in another order.
    """
    def dot(a, b):
        out = a[..., 0] * b[..., 0]
        if n > 1:
            term = np.empty_like(out)  # the one temporary
            for i in range(1, n):
                out += np.multiply(a[..., i], b[..., i], out=term)
        return out

    return dot


@dataclass
class ManifoldGeometry:
    """Extrinsic description of a constraint manifold embedded in R^n.

    ``constraint`` returns residuals that vanish on the manifold;
    ``project_tangent`` is the orthogonal projection onto the tangent space;
    ``retract`` maps nearby ambient points back onto the manifold.  The
    optional callbacks extend the interface for curvature (``ricci_op``, the
    Ricci operator, so Ric(u, v) = metric_dot(x, ricci_op(x, u), v)),
    non-Euclidean metrics (``metric_dot``), group-specific integration steps
    (``step``), second-variation bookkeeping (``dproject``,
    ``transport_init``), geodesics, and quasi-random sampling.
    """

    constraint: Callable
    project_tangent: Callable
    retract: Callable
    ricci_op: Optional[Callable] = None       # (x, w) -> (B, n)
    metric_dot: Optional[Callable] = None     # (x, u, v) -> (B,); None = ambient dot
    step: Optional[Callable] = None           # (x, dW, dt) -> (B, n)
    dproject: Optional[Callable] = None       # (x, u, z) -> (B, n)
    transport_init: Optional[Callable] = None  # (x, u, v) -> (B, n)
    geodesic: Optional[Callable] = None       # (x, v, s) -> point(s)
    sample: Optional[Callable] = None         # (count, rng) -> (count, n); paths keys rng


@dataclass
class DiffusionModel:
    """Coefficient bundle for one SDE scenario dx = X(x) dB + drift dt.

    Either the Ito drift ``Z`` or the Stratonovich drift ``A`` (with ``DX``)
    must be supplied.  ``hess_h`` is the covariant derivative of the drift
    vector field for h-Brownian systems (zero when h is constant), used by
    the Hessian flow.  A field that is identically zero returns the scalar
    ``0.0``: the kernels skip it (``add_terms``) and other readers broadcast
    it, as ``_matrix`` does.

    The noise coefficients X, DX, D2X and the right inverse Y of X on the
    tangent space are declared once each, as applications to a vector
    (``apply_*``); the methods ``X``, ``DX``, ``D2X`` and ``Y`` build their
    matrices from them.
    """

    n: int
    m: int
    apply_X: Callable                    # (x, e) -> X(x) e
    A: Optional[Callable] = None
    Z: Optional[Callable] = None
    apply_DX: Optional[Callable] = None  # (x, v, e) -> DX(x)(v) e
    apply_D2X: Optional[Callable] = None  # (x, u, v, e) -> D2X(x)(u, v) e
    DZ: Optional[Callable] = None       # (x, v) -> (B, n)
    D2Z: Optional[Callable] = None      # (x, u, v) -> (B, n)
    apply_Y: Optional[Callable] = None   # (x, v) -> Y(x) v
    DY: Optional[Callable] = None       # (x, u, v) -> (B, m)
    hess_h: Optional[Callable] = None   # (x, w) -> (B, n)
    geometry: Optional[ManifoldGeometry] = None
    kind: str = "custom"
    gradient_system: bool = False
    h_brownian: bool = False
    blow_up_radius: float = 1e8
    fd_derivatives: bool = False
    domain: tuple = (-2.0, 2.0)         # per-coordinate sampling box (flat models)

    def metric_dot(self, x, u, v):
        """Riemannian inner product of two (tangent) vectors, batched."""
        if self.geometry is not None and self.geometry.metric_dot is not None:
            return self.geometry.metric_dot(x, u, v)
        return make_dot(self.n)(u, v)

    def require(self, *names):
        for name in names:
            field = "apply_" + name if name in _APPLIED else name
            if getattr(self, field) is None:
                raise MissingDerivative(f"model does not supply {name}")

    def X(self, x):  # (B, n, m), as are DX and D2X
        return self._matrix("X", self.n, self.m, x)

    def DX(self, x, v):
        return self._matrix("DX", self.n, self.m, x, v)

    def D2X(self, x, u, v):
        return self._matrix("D2X", self.n, self.m, x, u, v)

    def Y(self, x):  # (B, m, n)
        return self._matrix("Y", self.m, self.n, x)

    def _matrix(self, name, rows, cols, x, *directions):
        """Column j is the application at basis vector e_j of R^cols, broadcast to
        the batch: a constant application may return a scalar."""
        self.require(name)
        apply = getattr(self, "apply_" + name)
        shape = x.shape[:-1] + (rows,)
        return np.stack([np.broadcast_to(apply(x, *directions, e), shape)
                         for e in np.eye(cols)], axis=-1)


_APPLIED = ("X", "DX", "D2X", "Y")  # the noise coefficients, declared as applications


@dataclass
class LieGroupModel(DiffusionModel):
    """Left-invariant system on a matrix group, states stored flattened.

    The frame at a group element g is the left translate of an orthonormal
    Lie-algebra basis scaled by ``noise_scale``; integration uses the exact
    exponential update g exp(scale * dB^a E_a).
    """

    group_dim: int = 3
    mat_dim: int = 3
    noise_scale: float = 1.0

    def ad_inverse(self, g_flat, v_alg):
        """Ad(g^-1) applied to algebra coordinates; for SO(3) this is g^T v."""
        d = self.mat_dim
        v = np.asarray(v_alg, dtype=float)
        out = g_flat[..., 0:d] * v[0]
        for j in range(1, d):  # row j of g, scaled by v_j
            out = out + g_flat[..., j * d:(j + 1) * d] * v[j]
        return out


@dataclass(frozen=True)
class ScalarObservable:
    """A scalar test function with optional declared derivatives."""

    f: Callable                       # (B, n) -> (B,)
    df: Optional[Callable] = None     # (B, n) -> (B, n), ambient gradient
    bound: Optional[float] = None
    name: str = ""

    def __call__(self, x):
        return self.f(x)


def as_observable(f, name="") -> ScalarObservable:
    if isinstance(f, ScalarObservable):
        return f
    return ScalarObservable(f=f, name=name or getattr(f, "__name__", ""))


@dataclass(frozen=True)
class PotentialField:
    """Zero-order term V(t, x) with spatial derivative and declared bound."""

    V: Callable                      # (t, x) -> (B,)
    dV: Optional[Callable] = None    # (t, x) -> (B, n)
    upper_bound: float = np.inf
    name: str = ""


@dataclass(frozen=True)
class TimeDependentCoefficients:
    """Time-dependent coefficient callbacks (t, x[, v]) for the potential estimator."""

    X: Callable                       # (t, x) -> (B, n, m)
    Z: Callable                       # (t, x) -> (B, n)
    DX: Optional[Callable] = None     # (t, x, v) -> (B, n, m)
    DZ: Optional[Callable] = None     # (t, x, v) -> (B, n)
    Y: Optional[Callable] = None      # (t, x) -> (B, m, n)


# apply_coeff and apply_right_inverse are the traced layers of perfbench/spans.py
def apply_coeff(model: DiffusionModel, x, e) -> np.ndarray:
    """X(x) applied to a noise vector."""
    return model.apply_X(x, e)


def apply_right_inverse(model: DiffusionModel, x, v) -> np.ndarray:
    """Y(x) applied to a tangent vector."""
    if model.apply_Y is None:
        raise MissingDerivative("model does not supply Y")
    return model.apply_Y(x, v)


def _gram_right_inverse(Xm) -> np.ndarray:
    """X^T (X X^T)^(-1) for batched X: (B, n, m), guarded against singular X X^T."""
    gram = np.einsum("bnm,bkm->bnk", Xm, Xm)  # X X^T, (B, n, n)
    # guard: smallest singular value of the Gram matrix
    svals = np.linalg.svd(gram, compute_uv=False)
    if np.any(svals[..., -1] <= _RIGHT_INVERSE_COND_TOL * svals[..., 0]):
        raise Degenerate("X(x) X(x)^T is singular beyond tolerance")
    return np.einsum("bnm,bnk->bmk", Xm, np.linalg.inv(gram))


# ---------------------------------------------------------------------------
# flat models


def make_flat_model(n, m, X, Z=None, *, A=None, DX=None, D2X=None, DZ=None,
                    D2Z=None, Y=None, DY=None, hess_h=None,
                    h_brownian=False, domain=(-2.0, 2.0), kind="flat") -> DiffusionModel:
    """Assemble a flat-space model from batched coefficient callbacks.

    The noise coefficients X, DX, D2X (-> (B, n, m)) and Y (-> (B, m, n)) are
    given as matrices and stored as their applications; Y defaults to the Gram
    right inverse X^T (X X^T)^(-1).
    """
    Xm = np.asarray(X(np.zeros((1, n))))
    if Xm.shape != (1, n, m):
        raise DimensionMismatch(f"X returns shape {Xm.shape}, expected (1, {n}, {m})")
    if Y is None:
        Y = lambda x: _gram_right_inverse(X(x))
    return DiffusionModel(n=n, m=m, apply_X=_applied(X), A=A, Z=Z, apply_DX=_applied(DX),
                          apply_D2X=_applied(D2X), DZ=DZ, D2Z=D2Z, apply_Y=_applied(Y),
                          DY=DY, hess_h=hess_h, kind=kind, h_brownian=h_brownian,
                          domain=domain)


def _applied(matrix):
    """The application (x, *directions, e) -> matrix(x, *directions) e, or None."""
    if matrix is None:
        return None
    return lambda x, *args: matvec(matrix(x, *args[:-1]), args[-1])


def matvec(M, e):
    """Batched M e for matrices (..., n, m): the m columns summed in index order, as in
    ``make_dot``, so the bits do not depend on the layout of e."""
    out = M[..., 0] * e[..., 0, None]
    for j in range(1, M.shape[-1]):
        out += M[..., j] * e[..., j, None]
    return out


def make_bm_model(n=1, sigma=1.0) -> DiffusionModel:
    """Standard Brownian motion dx = sigma dB on R^n (h-Brownian with h = 0)."""
    from .paths import _integer  # at call time: paths imports this module
    n = _integer("n", n)
    if not (np.isfinite(sigma) and sigma != 0):
        raise Degenerate(f"Brownian motion needs a finite nonzero sigma, got {sigma!r}")
    if sigma == 1.0:
        X, Y = (lambda x, e: e), (lambda x, w: w)
    else:
        X, Y = (lambda x, e: sigma * e), (lambda x, w: w / sigma)
    return DiffusionModel(
        n=n, m=n,
        Z=lambda x: 0.0,
        DZ=lambda x, v: 0.0,
        D2Z=lambda x, u, v: 0.0,
        DY=lambda x, u, v: 0.0,
        hess_h=lambda x, w: 0.0,
        kind="bm",
        h_brownian=True,
        domain=(-3.0, 3.0),
        apply_X=X, apply_DX=lambda x, v, e: 0.0, apply_D2X=lambda x, u, v, e: 0.0, apply_Y=Y,
    )


def make_ou_model(rate=1.0) -> DiffusionModel:
    """Ornstein-Uhlenbeck dx = -rate * x dt + dB on R^1, h = -rate x^2 / 2.

    Brownian motion plus a linear drift: every other field is that of BM.
    """
    r = float(rate)
    if not np.isfinite(r):
        raise Degenerate(f"Ornstein-Uhlenbeck needs a finite rate, got {rate!r}")
    return replace(make_bm_model(1), Z=lambda x: -r * x, DZ=lambda x, v: -r * v,
                   hess_h=lambda x, w: -r * w, kind="ou")


# ---------------------------------------------------------------------------
# sphere gradient systems


def _sphere_geometry(n) -> ManifoldGeometry:
    dot = make_dot(n)

    def constraint(x):
        return (dot(x, x) - 1.0)[..., None]

    def project(x, v):
        return v - dot(x, v)[..., None] * x

    def retract(x):
        return x / np.sqrt(dot(x, x))[..., None]

    def ricci_op(x, w):
        return (n - 2) * w

    def dproject(x, u, z):
        # derivative of v -> (I - x x^T) v in base direction u
        return -u * dot(x, z)[..., None] - x * dot(u, z)[..., None]

    def transport_init(x, u, v):
        # s-derivative at 0 of the parallel field v(s) along the geodesic from x with speed u
        return -dot(u, v)[..., None] * x

    def geodesic(x, v, s):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        speed = np.linalg.norm(v)
        if speed == 0:
            return x.copy()
        return np.cos(s * speed) * x + np.sin(s * speed) * v / speed

    def sample(count, rng):
        pts = rng.standard_normal((count, n))
        return pts / np.linalg.norm(pts, axis=-1, keepdims=True)

    return ManifoldGeometry(constraint=constraint, project_tangent=project,
                            retract=retract, ricci_op=ricci_op,
                            dproject=dproject, transport_init=transport_init,
                            geodesic=geodesic, sample=sample)


def make_gradient_sphere_model(n) -> DiffusionModel:
    """Gradient Brownian system on the unit sphere S^(n-1) in R^n.

    X(x) is the tangent projection I - x x^T with m = n; the Ito drift of
    the ambient process is -(n-1)/2 * x.  The covariant drift vanishes
    (h = 0), so the generator is half the sphere Laplacian.
    """
    from .paths import _integer  # at call time: paths imports this module
    if _integer("n", n) < 2:
        raise DimensionMismatch("sphere models need ambient dimension n >= 2")
    c = 0.5 * (n - 1)
    dot = make_dot(n)
    geometry = _sphere_geometry(n)
    return DiffusionModel(
        n=n, m=n,
        A=lambda x: 0.0,
        Z=lambda x: -c * x,
        DZ=lambda x, v: -c * v,
        D2Z=lambda x, u, v: 0.0,
        hess_h=lambda x, w: 0.0,
        geometry=geometry,
        kind="gradient_sphere" if n > 2 else "circle",
        gradient_system=True,
        h_brownian=True,
        apply_X=geometry.project_tangent,
        apply_DX=geometry.dproject,
        apply_D2X=lambda x, u, v, e: -u * dot(v, e)[..., None] - v * dot(u, e)[..., None],
        # the projection is self-adjoint and idempotent, so Y = X^T = X
        apply_Y=geometry.project_tangent,
    )


# ---------------------------------------------------------------------------
# SO(3) left-invariant model


def skew_from_axis(w):
    """Axis coordinates (..., 3) -> skew matrices (..., 3, 3)."""
    x, y, z = np.moveaxis(np.asarray(w, dtype=float), -1, 0)
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(x.shape + (3, 3))


def axis_from_skew(S):
    """Skew matrices (..., 3, 3) -> axis coordinates (..., 3)."""
    return np.stack([S[..., 2, 1], S[..., 0, 2], S[..., 1, 0]], axis=-1)


def rotation_exp(w):
    """Rodrigues formula: axis coordinates (..., 3) -> rotation matrices (..., 3, 3).

    exp(S) = I + a S + b S^2 with S^2 = w w^T - theta^2 I, written out per
    entry; a = sin(theta)/theta and b = (1 - cos(theta))/theta^2 switch to
    their Taylor polynomials below theta = 1e-8.  The storage is entry-major,
    (3, 3, ...), returned as its (..., 3, 3) view: for a batch, each entry
    R[:, i, j] is contiguous.
    """
    x, y, z = np.moveaxis(np.asarray(w, dtype=float), -1, 0)
    xx, yy, zz = x * x, y * y, z * z
    theta = np.sqrt(xx + yy + zz)
    small = theta < 1e-8
    th = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta ** 2 / 6.0, np.sin(th) / th)
    b = np.where(small, 0.5 - theta ** 2 / 24.0, (1.0 - np.cos(th)) / th ** 2)
    bxy, bxz, byz = b * (x * y), b * (x * z), b * (y * z)
    ax, ay, az = a * x, a * y, a * z
    R = np.empty((3, 3) + theta.shape)  # entry by entry: one temporary live at a time
    R[0, 0] = 1.0 - b * (yy + zz)
    R[0, 1] = bxy - az
    R[0, 2] = bxz + ay
    R[1, 0] = bxy + az
    R[1, 1] = 1.0 - b * (xx + zz)
    R[1, 2] = byz - ax
    R[2, 0] = bxz - ay
    R[2, 1] = byz + ax
    R[2, 2] = 1.0 - b * (xx + yy)
    return np.moveaxis(R, (0, 1), (-2, -1))


def _so3_product(g, M):
    """g M for flattened rotations g (..., 9) and matrices M (..., 3, 3), in g's layout.

    Entry 3i+j is g[3i] M[0, j] + g[3i+1] M[1, j] + g[3i+2] M[2, j], written
    out: on component-major g every term reads one contiguous column.
    """
    out = np.empty_like(g)
    term = np.empty_like(out[..., 0])  # the one temporary
    for i in range(3):
        for j in range(3):
            entry = out[..., 3 * i + j]
            np.multiply(g[..., 3 * i], M[..., 0, j], out=entry)
            for k in (1, 2):
                entry += np.multiply(g[..., 3 * i + k], M[..., k, j], out=term)
    return out


def _so3_geometry(scale) -> ManifoldGeometry:
    s2 = 2.0 * scale * scale
    dot = make_dot(9)

    def constraint(g):
        G = g.reshape(g.shape[:-1] + (3, 3))
        res = np.einsum("...ji,...jk->...ik", G, G) - np.eye(3)
        return res.reshape(g.shape[:-1] + (9,))

    def project(g, v):
        G = g.reshape(g.shape[:-1] + (3, 3))
        V = v.reshape(v.shape[:-1] + (3, 3))
        body = np.einsum("...ji,...jk->...ik", G, V)
        return _so3_product(g, 0.5 * (body - np.swapaxes(body, -1, -2)))

    def retract(g):
        G = g.reshape(g.shape[:-1] + (3, 3))
        u, _, vt = np.linalg.svd(G)
        R = u @ vt
        det = np.linalg.det(R)
        u = u.copy()
        u[..., :, -1] *= np.sign(det)[..., None]
        return (u @ vt).reshape(g.shape)

    def metric_dot(g, u, v):
        return dot(u, v) / s2

    def ricci_op(g, w):
        return 0.5 * scale * scale * w

    def geodesic(g, v, s):
        G = g.reshape(3, 3)
        V = v.reshape(3, 3)
        body = axis_from_skew(G.T @ V)
        return (G @ rotation_exp(s * body)).reshape(9)

    def sample(count, rng):
        return rotation_exp(rng.standard_normal((count, 3))).reshape(count, 9)

    return ManifoldGeometry(constraint=constraint, project_tangent=project,
                            retract=retract, ricci_op=ricci_op,
                            metric_dot=metric_dot, geodesic=geodesic,
                            sample=sample)


def make_so3_model(noise_scale=1.0) -> LieGroupModel:
    """Left-invariant Brownian system on SO(3) with the bi-invariant metric.

    States are rotation matrices flattened to R^9.  The frame at g maps the
    i-th noise coordinate to noise_scale * g E_i and integration applies the
    exact group exponential, so trajectories stay on SO(3) to rounding.
    """
    if not (np.isfinite(noise_scale) and noise_scale > 0):
        raise Degenerate(f"SO(3) noise needs a finite positive noise_scale, got {noise_scale!r}")
    s = float(noise_scale)

    def apply_X(g, e):
        return s * _so3_product(g, skew_from_axis(e))

    def apply_Y(g, w):
        G = g.reshape(g.shape[:-1] + (3, 3))
        W = w.reshape(w.shape[:-1] + (3, 3))
        M = np.einsum("...ji,...jk->...ik", G, W)
        return axis_from_skew(0.5 * (M - np.swapaxes(M, -1, -2))) / s

    def step(g, dW, dt):
        return _so3_product(g, rotation_exp(s * dW))

    geometry = _so3_geometry(s)
    geometry.step = step
    return LieGroupModel(
        n=9, m=3,
        A=lambda g: 0.0,
        Z=lambda g: -(s * s) * g,
        DZ=lambda g, v: -(s * s) * v,
        D2Z=lambda g, u, v: 0.0,
        hess_h=lambda g, w: 0.0,
        geometry=geometry,
        kind="lie_group",
        h_brownian=True,
        group_dim=3, mat_dim=3, noise_scale=s,
        # the frame is linear in g, so DX(g)(v) = X(v)
        apply_X=apply_X, apply_DX=lambda g, v, e: apply_X(v, e),
        apply_D2X=lambda g, u, v, e: 0.0, apply_Y=apply_Y,
    )


# ---------------------------------------------------------------------------
# finite-difference fallbacks and derivative checks


def with_fd_derivatives(model: DiffusionModel, step=1e-5) -> DiffusionModel:
    """Fill missing DX / DZ / D2X / D2Z by central differences (flagged).

    Finite-difference coefficients bias derivative estimators; models built
    this way carry ``fd_derivatives=True`` and results report a warning.
    """
    out = replace(model)

    def d1(fn):
        def deriv(x, v, *rest):
            return (fn(x + step * v, *rest) - fn(x - step * v, *rest)) / (2 * step)
        return deriv

    def d2(fn):
        def deriv(x, u, v, *rest):
            fp = d1(fn)
            return (fp(x + step * u, v, *rest) - fp(x - step * u, v, *rest)) / (2 * step)
        return deriv

    if out.apply_DX is None:
        out.apply_DX = d1(model.apply_X)
    if out.DZ is None and model.Z is not None:
        out.DZ = d1(model.Z)
    if out.apply_D2X is None:
        out.apply_D2X = d2(model.apply_X)
    if out.D2Z is None and model.Z is not None:
        out.D2Z = d2(model.Z)
    out.fd_derivatives = True
    return out
