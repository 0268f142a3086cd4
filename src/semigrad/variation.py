"""Linearized flows along a trajectory.

First variation v_t (the pathwise derivative of the solution map), second
variation w_t (its derivative in a second initial direction), the
deterministic Hessian flow W_t driven by -Ric/2 + covariant drift
derivative, and discrete parallel transport.  Step functions are batched
over paths; the public operations wrap them per path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import BlownUpPath, DimensionMismatch, MissingDerivative, MissingGeometry

if TYPE_CHECKING:  # paths imports this module at load time for the kernel's flows
    from .paths import NoisePath, Trajectory


@dataclass(eq=False)
class VariationPath:
    """First-variation vectors v_k along a path, v_0 = requested v0."""

    vectors: np.ndarray  # (n_steps + 1, n)
    v0: np.ndarray


@dataclass(eq=False)
class SecondVariationPath:
    """Second-variation vectors w_k for an initial direction pair (u0, v0)."""

    vectors: np.ndarray
    u0: np.ndarray
    v0: np.ndarray


@dataclass(eq=False)
class HessianFlowPath:
    """Damped-transport flow W_k along a path, W_0 = v0."""

    vectors: np.ndarray
    v0: np.ndarray


# ---------------------------------------------------------------------------
# batched step kernels (x, x1 are the states before/after the same SDE step)


def apply_dx(model, x, v, dW):
    """DX(x)(v) applied to a noise vector, via the fused path when available."""
    if model.apply_DX is not None:
        return model.apply_DX(x, v, dW)
    return np.einsum("bnm,bm->bn", model.DX(x, v), dW)


def apply_d2x(model, x, u, v, dW):
    if model.apply_D2X is not None:
        return model.apply_D2X(x, u, v, dW)
    return np.einsum("bnm,bm->bn", model.D2X(x, u, v), dW)


def first_variation_step(model, x, x1, v, dW, dt):
    v1 = v + apply_dx(model, x, v, dW) + model.DZ(x, v) * dt
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
            + apply_dx(model, x, w, dW) + model.DZ(x, w) * dt
            + apply_d2x(model, x, u, v, dW)
            + model.D2Z(x, u, v) * dt)
    geom = model.geometry
    if geom is None:
        return dpre
    if geom.dproject is None:
        raise MissingGeometry("second variation on a manifold needs geometry.dproject")
    pre_v = v + apply_dx(model, x, v, dW) + model.DZ(x, v) * dt
    return geom.dproject(x1, u1, pre_v) + geom.project_tangent(x1, dpre)


def transport_step(model, x, x1, v):
    """Schild-type discrete parallel transport: project, then restore norm."""
    geom = model.geometry
    if geom is None:
        return v
    vp = geom.project_tangent(x1, v)
    norm_old = np.linalg.norm(v, axis=-1)
    norm_new = np.linalg.norm(vp, axis=-1)
    scale = np.where(norm_new > 0, norm_old / np.where(norm_new > 0, norm_new, 1.0), 0.0)
    return vp * scale[..., None]


def covariant_drift_deriv(model):
    """Batched (x, w) -> derivative of the covariant drift vector field.

    Flat models use DZ directly; h-Brownian manifold models use Hess h
    (zero for h = 0 gradient systems).
    """
    if model.geometry is None:
        if model.DZ is None:
            raise MissingDerivative("Hessian flow needs DZ on flat models")
        return model.DZ
    if model.hess_h is not None:
        return model.hess_h
    raise MissingDerivative(
        "Hessian flow on a manifold needs hess_h (covariant drift derivative)")


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


# ---------------------------------------------------------------------------
# per-path operations


def _as_vector(model, v):
    """A point or direction of the model's ambient space as a float (n,) array."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (model.n,):
        raise DimensionMismatch(f"vector has shape {v.shape}, expected ({model.n},)")
    return v


def _replay(traj: Trajectory, w0, step) -> np.ndarray:
    """Carry w0 along the stored states: w_(k+1) = step(k, x_k, x_(k+1), w_k)."""
    K = traj.grid.n_steps
    out = np.empty((K + 1, w0.shape[-1]))
    out[0] = w0
    w = w0[None, :]
    for k in range(K):
        w = step(k, traj.states[k][None], traj.states[k + 1][None], w)
        out[k + 1] = w[0]
    return out


def evolve_first_variation(model, traj: Trajectory, noise: NoisePath,
                           v0) -> VariationPath:
    """Tangent flow v_k along the trajectory, driven by the same noise."""
    model.require("DX", "DZ")
    if traj.blew_up:
        raise BlownUpPath("trajectory was flagged as blown up")
    v0 = _as_vector(model, v0)
    dt = traj.grid.dt
    out = _replay(traj, v0, lambda k, x, x1, v: first_variation_step(
        model, x, x1, v, noise.increments[k][None], dt))
    return VariationPath(vectors=out, v0=v0)


def evolve_second_variation(model, traj: Trajectory, noise: NoisePath,
                            u_path: VariationPath,
                            v_path: VariationPath) -> SecondVariationPath:
    """Second-variation flow for (u0, v0); u_path and v_path share the noise."""
    model.require("DX", "DZ", "D2X", "D2Z")
    if traj.blew_up:
        raise BlownUpPath("trajectory was flagged as blown up")
    dt = traj.grid.dt
    w0 = initial_second_variation(model, traj.states[0][None],
                                  u_path.v0[None], v_path.v0[None])[0]
    out = _replay(traj, w0, lambda k, x, x1, w: second_variation_step(
        model, x, x1, u_path.vectors[k][None], u_path.vectors[k + 1][None],
        v_path.vectors[k][None], w, noise.increments[k][None], dt))
    return SecondVariationPath(vectors=out, u0=u_path.v0, v0=v_path.v0)


def evolve_hessian_flow(model, traj: Trajectory, v0) -> HessianFlowPath:
    """Deterministic flow W_k = (-Ric/2 + covariant drift derivative) along the path."""
    if traj.blew_up:
        raise BlownUpPath("trajectory was flagged as blown up")
    v0 = _as_vector(model, v0)
    drift_deriv = covariant_drift_deriv(model)
    dt = traj.grid.dt
    out = _replay(traj, v0, lambda k, x, x1, W: hessian_flow_step(
        model, x, x1, W, dt, drift_deriv))
    return HessianFlowPath(vectors=out, v0=v0)


def parallel_transport(model, traj: Trajectory, v0) -> VariationPath:
    """Discrete parallel transport of v0 along the trajectory.

    Flat models return the constant path; constrained models project onto
    each new tangent space and rescale to preserve the norm.
    """
    v0 = _as_vector(model, v0)
    if model.geometry is not None and traj.blew_up:
        raise BlownUpPath("trajectory was flagged as blown up")
    out = _replay(traj, v0, lambda k, x, x1, v: transport_step(model, x, x1, v))
    return VariationPath(vectors=out, v0=v0)
