"""Linearized flows along a trajectory.

First variation v_t (the pathwise derivative of the solution map), second
variation w_t (its derivative in a second initial direction), the
deterministic Hessian flow W_t driven by -Ric/2 + covariant drift
derivative, and discrete parallel transport.  Step functions are batched
over paths and are the flows of ``paths.simulate``; ``paths.integrate_block``
records them along a block of paths.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, MissingDerivative, MissingGeometry
from .models import make_dot


def _as_vector(model, v):
    """A point or direction of the model's ambient space as a float (n,) array."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (model.n,):
        raise DimensionMismatch(f"vector has shape {v.shape}, expected ({model.n},)")
    return v


# ---------------------------------------------------------------------------
# batched step kernels (x, x1 are the states before/after the same SDE step)


def first_variation_step(model, x, x1, v, dW, dt):
    v1 = v + model.apply_DX(x, v, dW) + model.DZ(x, v) * dt
    if model.geometry is not None:
        v1 = model.geometry.project_tangent(x1, v1)
    return v1


def second_variation_step(model, x, x1, u, u1, v, w, dW, dt):
    """Exact linearization of the first-variation update in direction u.

    On flat models this is the differentiated Euler recursion
    dw = DX(w) dB + DZ(w) dt + D2X(u, v) dB + D2Z(u, v) dt.  On manifolds
    it additionally differentiates the tangent projection (dproject), which
    carries the curvature contribution of the covariant second variation.
    """
    dpre = (w
            + model.apply_DX(x, w, dW) + model.DZ(x, w) * dt
            + model.apply_D2X(x, u, v, dW)
            + model.D2Z(x, u, v) * dt)
    geom = model.geometry
    if geom is None:
        return dpre
    if geom.dproject is None:
        raise MissingGeometry("second variation on a manifold needs geometry.dproject")
    pre_v = v + model.apply_DX(x, v, dW) + model.DZ(x, v) * dt
    return geom.dproject(x1, u1, pre_v) + geom.project_tangent(x1, dpre)


def transport_step(model, x, x1, v):
    """Schild-type discrete parallel transport: project, then restore norm."""
    geom = model.geometry
    if geom is None:
        return v
    vp = geom.project_tangent(x1, v)
    dot = make_dot(model.n)
    norm_old, norm_new = np.sqrt(dot(v, v)), np.sqrt(dot(vp, vp))
    scale = np.where(norm_new > 0, norm_old / np.where(norm_new > 0, norm_new, 1.0), 0.0)
    return vp * scale[..., None]


def covariant_drift_deriv(model):
    """Batched (x, w) -> derivative of the covariant drift vector field.

    Flat models use DZ directly; h-Brownian manifold models use Hess h
    (zero for h = 0 gradient systems).  The Hessian flow, H_p and the
    curvature bound all read the drift derivative through this function.
    """
    if model.geometry is None:
        if model.DZ is None:
            raise MissingDerivative("the covariant drift derivative needs DZ on flat models")
        return model.DZ
    if model.hess_h is not None:
        return model.hess_h
    raise MissingDerivative("the covariant drift derivative on a manifold needs hess_h")


def hessian_flow_step(model, x, x1, W, dt, drift_deriv):
    Wt = transport_step(model, x, x1, W)
    geom = model.geometry
    if geom is None:
        ric = 0.0
    else:
        if geom.ricci_op is None:
            raise MissingGeometry("Hessian flow needs geometry.ricci_op")
        ric = geom.ricci_op(x1, Wt)
    W1 = Wt + dt * (-0.5 * ric + drift_deriv(x1, Wt))
    if geom is not None:
        W1 = geom.project_tangent(x1, W1)
    return W1


def hessian_flow(model, dt):
    """The Hessian flow as a ``simulate`` flow; a missing drift derivative fails here."""
    drift_deriv = covariant_drift_deriv(model)
    return lambda k, x, x1, vs, dW: [hessian_flow_step(model, x, x1, W, dt, drift_deriv)
                                     for W in vs]


def initial_second_variation(model, x0, u0, v0):
    """w_0 for the second-variation recursion (ambient representation).

    Covariantly the second variation starts at zero; on curved manifolds its
    ambient representative is the normal vector produced by differentiating
    the parallel initial field, supplied by geometry.transport_init.
    """
    geom = model.geometry
    if geom is None or geom.transport_init is None:
        return np.zeros_like(v0)
    return geom.transport_init(x0, u0, v0)
