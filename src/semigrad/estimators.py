"""Monte Carlo estimators for semigroup derivatives.

Every estimator follows the same per-path recipe: generate keyed
noise, integrate the SDE, co-evolve whichever variation flows the formula
needs, accumulate a stochastic-integral weight with left-endpoint (Ito)
evaluation on the same increments as the trajectory, and average the
per-path columns with the one ``engine`` reducer.  All estimators return
an EstimatorResult with mean, standard error, merged columns and blow-up
accounting; means are bit-reproducible from (seed, config) regardless of
the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import engine
from .errors import (AllPathsBlewUp, DimensionMismatch, EmptyBin,
                     InvalidConfig, MissingDerivative, NotLieGroup,
                     UnboundedPotential, UnsupportedModel)
from .models import (LieGroupModel, PotentialField, TimeDependentCoefficients,
                     apply_right_inverse, as_observable, make_dot, matvec)
from .paths import _AUX_STREAM, NoiseStream, TimeGrid, _integer, _keyed, simulate, weight
from .variation import (_as_vector, first_variation_step, hessian_flow,
                        initial_second_variation, second_variation_step)

_MAX_REJECT_FRACTION = 0.01


@dataclass(frozen=True)
class EstimatorResult:
    """Monte Carlo mean with its sampling error and provenance."""

    mean: float
    std_error: float
    n_paths: int
    n_rejected: int
    seed: int
    grid: TimeGrid
    metadata: dict = field(default_factory=dict)
    columns: tuple = ()  # merged engine.Moments of each per-path column; the mean is column 0's

    @property
    def valid(self) -> bool:
        return not self.metadata.get("invalid", False)


@dataclass(frozen=True)
class ConditionalBinSpec:
    """Endpoint conditioning window for the transition-score estimator."""

    target: np.ndarray
    bandwidth: float
    kernel: str = "box"  # box | gaussian

    def __post_init__(self):
        if isinstance(self.bandwidth, (bool, np.bool_)) or not 0 < self.bandwidth < np.inf:
            raise InvalidConfig(f"bandwidth must be positive and finite, got {self.bandwidth!r}")
        if self.kernel not in ("box", "gaussian"):
            raise InvalidConfig(f"unknown kernel {self.kernel!r}")


def _annotate(model, metadata, n_rej, total) -> dict:
    """Shared result metadata: derivative provenance and blow-up accounting."""
    meta = dict(metadata or {})
    if model.fd_derivatives:
        meta.setdefault("warnings", []).append(
            "model uses finite-difference coefficient derivatives")
    meta["blowup_fraction"] = n_rej / total
    if n_rej / total > _MAX_REJECT_FRACTION:
        meta["invalid"] = True
        meta.setdefault("warnings", []).append(
            f"{n_rej}/{total} paths hit the blow-up radius")
    return meta


def _result_from_sums(model, columns, n_rej, seed, grid, metadata=None) -> EstimatorResult:
    """Mean and standard error of column 0 of the merged ``scalar_stats`` columns."""
    s1, m2, n_ok = columns[0]
    if n_ok == 0:
        raise AllPathsBlewUp("no surviving paths")
    mean = s1 / n_ok
    var = m2 / max(1, n_ok - 1)
    se = float(np.sqrt(var / n_ok))
    total = n_ok + n_rej
    return EstimatorResult(mean=mean, std_error=se, n_paths=total,
                           n_rejected=n_rej, seed=seed, grid=grid,
                           metadata=_annotate(model, metadata, n_rej, total),
                           columns=tuple(columns))


def _map_paths(model, grid, n_paths, block_fn) -> list:
    """block_fn(lo, hi) over the path partition every estimator shares."""
    return engine.map_blocks(_integer("n_paths", n_paths), block_fn,
                             block_size=engine.default_block_size(grid.n_steps, model.m))


def _mc_scalar(model, grid, n_paths, seed, block_fn, *, metadata=None) -> EstimatorResult:
    """Reduce block_fn(lo, hi) -> (columns, ok) over all paths; the mean is column 0's."""
    blocks = _map_paths(model, grid, n_paths,
                        lambda lo, hi: engine.scalar_stats(*block_fn(lo, hi)))
    *columns, n_rej = engine.combine_scalar(blocks)
    return _result_from_sums(model, columns, n_rej, seed, grid, metadata)


def _estimate(model, grid, x0, endpoint, *, n_paths, seed, metadata=None,
              **spec) -> EstimatorResult:
    """Mean of endpoint(x_t, v_t, sums) over paths stepped by ``simulate(**spec)``.

    The endpoint returns one per-path column or a tuple of them, each merged
    into ``EstimatorResult.columns``; the mean and standard error are column 0's.
    """
    x0 = _as_vector(model, x0)
    spec["vs"] = [_as_vector(model, v) for v in spec.get("vs", ())]

    def block(lo, hi):
        x, alive, vs, sums = simulate(model, grid, np.broadcast_to(x0, (hi - lo, model.n)),
                                      NoiseStream(grid, seed, lo, hi, model.m), **spec)
        columns = endpoint(x, vs, sums)
        return columns if isinstance(columns, tuple) else (columns,), alive

    return _mc_scalar(model, grid, n_paths, seed, block, metadata=metadata)


# ---------------------------------------------------------------------------
# plain semigroup value and the two first-derivative estimators


def semigroup_value(model, f, grid: TimeGrid, x0, *, n_paths, seed=0) -> EstimatorResult:
    """Estimate the semigroup value E f(x_t) started at x0."""
    f = as_observable(f)
    return _estimate(model, grid, x0, lambda x, vs, sums: f(x),
                     n_paths=n_paths, seed=seed)


def pathwise_gradient(model, f, grid: TimeGrid, x0, v0, *, n_paths, seed=0) -> EstimatorResult:
    """Estimate E df(x_t)(v_t) with v the first-variation flow (needs df)."""
    f = as_observable(f)
    if f.df is None:
        raise MissingDerivative("pathwise gradient needs the observable derivative df")
    model.require("DX", "DZ")
    dot = make_dot(model.n)
    return _estimate(model, grid, x0, lambda x, vs, sums: dot(f.df(x), vs[0]),
                     vs=(v0,), n_paths=n_paths, seed=seed)


def bel_gradient(model, f, grid: TimeGrid, x0, v0, *, n_paths, seed=0) -> EstimatorResult:
    """Derivative-free gradient estimator.

    Per path accumulates f(x_t) * (1/t) * sum_k <Y(x_k) v_k, dB_k> on flat
    models, or <v_k, X(x_k) dB_k> in the manifold metric, with v the
    first-variation flow on the same noise.  No derivative of f is used.
    """
    f = as_observable(f)
    model.require("DX", "DZ")
    if model.geometry is None:
        model.require("Y")
    t = grid.t_end
    return _estimate(model, grid, x0, lambda x, vs, sums: f(x) * sums[0] / t,
                     vs=(v0,), sums=[weight(model, 0)],
                     n_paths=n_paths, seed=seed)


# ---------------------------------------------------------------------------
# second derivative


def bel_hessian(model, f, grid: TimeGrid, x0, u0, v0, *, variant="weights",
                n_paths, seed=0, n_inner=8) -> EstimatorResult:
    """Second-derivative estimator with the time split at t/2.

    variant="weights": three stochastic-integral weights under f(x_t); needs
    DY (flat) or DX (manifold) plus the second-variation flow.
    variant="nested": the correction terms are inner gradient estimates
    D(P_(t-s) f)(x_s)(w_s - DX(v_s)(Y u_s)) at a stratified random s in
    [0, t/2], evaluated with n_inner independent sub-stream paths.
    """
    f = as_observable(f)
    if grid.n_steps % 2 != 0:
        raise InvalidConfig("bel_hessian needs an even n_steps for the t/2 split")
    if variant not in ("weights", "nested"):
        raise InvalidConfig(f"unknown bel_hessian variant {variant!r}")
    model.require("DX", "DZ", "D2X", "D2Z")
    manifold = model.geometry is not None
    if variant == "weights" and not manifold and model.DY is None:
        raise MissingDerivative("bel_hessian(weights) on flat models needs DY")
    if variant == "nested" and manifold:
        raise UnsupportedModel("the nested Hessian variant is implemented for flat models")
    if variant == "nested":
        n_inner = _integer("n_inner", n_inner)
    x0 = _as_vector(model, x0)
    u0 = _as_vector(model, u0)
    v0 = _as_vector(model, v0)
    w0 = initial_second_variation(model, x0[None], u0[None], v0[None])[0]
    t = grid.t_end
    dt = grid.dt
    K2 = grid.n_steps // 2
    half = TimeGrid(t / 2, K2)  # its dt is dt bitwise

    def first_half_flow(k, x, x1, vs, dW):
        u, v, w = vs
        u1 = first_variation_step(model, x, x1, u, dW, dt)
        w = second_variation_step(model, x, x1, u, u1, v, w, dW, dt)
        return [u1, first_variation_step(model, x, x1, v, dW, dt), w]

    def correction(k, x, x_dB, dW, vs):
        # <DX(x)(u) dB, v> + <X(x) dB, w>, or <DY(x)(u, v) + Y(x) w, dB> on flat models
        u, v, w = vs
        if manifold:
            dxu = model.apply_DX(x, u, dW)
            return model.metric_dot(x, dxu, v) + model.metric_dot(x, x_dB, w)
        return make_dot(model.m)(model.DY(x, u, v) + apply_right_inverse(model, x, w), dW)

    # the nested variant estimates the correction by inner paths instead
    sums = [weight(model, 0)] + ([correction] if variant == "weights" else [])

    def block(lo, hi):
        dWs = iter(NoiseStream(grid, seed, lo, hi, model.m))  # both halves read it
        k_s = -1
        if variant == "nested":
            k_s = int(_keyed(seed, _AUX_STREAM, lo).integers(0, K2))
        snap = {}

        def snapshot(k, x, vs, alive):  # the nested variant's state at k_s
            if k == k_s:
                snap.update(x=x, u=vs[0], v=vs[1], w=vs[2], alive=alive)

        x, alive, (_, v, _), (acc_u, *acc_corr) = simulate(
            model, half, np.broadcast_to(x0, (hi - lo, model.n)), dWs, vs=(u0, v0, w0),
            flow=first_half_flow, sums=sums, hook=snapshot)
        x, alive, _, (acc_v,) = simulate(model, half, x, dWs, alive,
                                         vs=(v,), sums=[weight(model, 0)])
        values = f(x) * (4.0 / (t * t) * acc_v * acc_u + 2.0 / t * sum(acc_corr))
        if variant == "nested":
            inner, inner_ok = _nested_correction(model, f, grid, seed, lo, hi, k_s,
                                                 snap, n_inner)
            values = values + inner
            alive = alive & inner_ok
        return (values,), alive

    meta = {"variant": variant}
    if variant == "nested":
        meta["n_inner"] = n_inner
    return _mc_scalar(model, grid, n_paths, seed, block, metadata=meta)


def _nested_correction(model, f, grid, seed, lo, hi, k_s, snap, n_inner):
    """E_s D(P_(t-s) f)(x_s)(w_s - DX(v_s)(Y u_s)) via inner sub-stream paths.

    The s-integral over [0, t/2] uses one stratified grid index per block;
    together with the (t/2) measure and the 2/t prefactor the contribution
    reduces to the inner gradient estimate itself.
    """
    B = hi - lo
    x_s, u_s, v_s, w_s = snap["x"], snap["u"], snap["v"], snap["w"]
    yu = apply_right_inverse(model, x_s, u_s)
    direction = w_s - model.apply_DX(x_s, v_s, yu)
    if not np.any(direction):
        return np.zeros(B), np.ones(B, dtype=bool)
    K_in = grid.n_steps - k_s
    t_in = grid.t_end - k_s * grid.dt
    grid_in = TimeGrid(t_end=K_in * grid.dt, n_steps=K_in)
    fsum = np.zeros(B)
    nsum = np.zeros(B)
    for j in range(1, n_inner + 1):
        dWs = NoiseStream(grid_in, seed, lo, hi, model.m, stream=j)
        x, alive, _, (wsum,) = simulate(model, grid_in, x_s, dWs, snap["alive"],
                                        vs=(direction,), sums=[weight(model, 0)])
        val = f(x) * wsum / t_in
        fsum += np.where(alive, val, 0.0)
        nsum += alive.astype(float)
    ok = nsum > 0
    est = np.where(ok, fsum / np.where(ok, nsum, 1.0), 0.0)
    return est, ok


# ---------------------------------------------------------------------------
# potentials / Feynman-Kac


def potential_gradient(model, f, V: PotentialField, grid: TimeGrid, x0, v0, *,
                       n_paths, seed=0, time_coeffs: Optional[TimeDependentCoefficients] = None
                       ) -> EstimatorResult:
    """Gradient of the potential semigroup via the Feynman-Kac weight.

    Per path: exp(sum_k V(t - t_k, x_k) dt) times the martingale weight plus
    the potential-derivative correction sum_k (t - t_k) dV(t - t_k, x_k)
    applied to the variation flow (flat) or to the Hessian flow on manifold
    h-Brownian systems.  Time-dependent coefficients run time-reversed.
    """
    f = as_observable(f)
    t = grid.t_end
    dt = grid.dt
    manifold = model.geometry is not None
    if manifold and time_coeffs is not None:
        raise UnsupportedModel("time-dependent coefficients are flat-space only")
    if manifold:
        stepping = {"flow": hessian_flow(model, dt)}
    else:
        model.require("DX", "DZ")
        stepping = {}
    bound_tol = 1e-9 * max(1.0, abs(V.upper_bound)) if np.isfinite(V.upper_bound) else np.inf

    def tau(k):
        return t - k * dt  # reversed time argument at the left endpoint of step k

    tc = time_coeffs
    if tc is not None:
        def tc_step(k, x, dW):
            x_dB = matvec(tc.X(tau(k), x), dW)
            return x + x_dB + tc.Z(tau(k), x) * dt, x_dB

        def tc_weight(k, x, x_dB, dW, vs):
            yv = matvec(tc.Y(tau(k), x), vs[0])
            return make_dot(model.m)(yv, dW)

        def tc_flow(k, x, x1, vs, dW):
            return [v + matvec(tc.DX(tau(k), x, v), dW)
                    + tc.DZ(tau(k), x, v) * dt for v in vs]

        stepping = {"step": tc_step, "flow": tc_flow}
        sums = [tc_weight]
    else:
        sums = [weight(model, 0)]

    def feynman_kac_exponent(k, x, x_dB, dW, vs):
        # a frozen path sits at a state it visited, so every path tests the bound
        pot = V.V(tau(k), x)
        if np.max(pot) > V.upper_bound + bound_tol:
            raise UnboundedPotential(
                f"potential reached {np.max(pot)}, declared bound {V.upper_bound}")
        return pot * dt

    sums.append(feynman_kac_exponent)
    if V.dV is not None:
        sums.append(lambda k, x, x_dB, dW, vs:
                    tau(k) * make_dot(model.n)(V.dV(tau(k), x), vs[0]) * dt)

    def endpoint(x, vs, sums):
        wsum, vsum, *dvsum = sums
        return f(x) * np.exp(vsum) * (wsum + (dvsum[0] if dvsum else 0.0)) / t

    return _estimate(model, grid, x0, endpoint, vs=(v0,), sums=sums, **stepping,
                     n_paths=n_paths, seed=seed)


# ---------------------------------------------------------------------------
# Hessian-flow gradient (damped transport weight, works for measurable f)


def hessian_flow_gradient(model, f, grid: TimeGrid, x0, v0, *, n_paths, seed=0) -> EstimatorResult:
    """Gradient estimator with the Hessian flow replacing the variation flow."""
    f = as_observable(f)
    if model.geometry is not None and not model.h_brownian:
        raise UnsupportedModel("Hessian-flow gradient needs an h-Brownian or flat model")
    t = grid.t_end
    return _estimate(model, grid, x0, lambda x, vs, sums: f(x) * sums[0] / t,
                     vs=(v0,), flow=hessian_flow(model, grid.dt),
                     sums=[weight(model, 0, metric=True)],
                     n_paths=n_paths, seed=seed)


# ---------------------------------------------------------------------------
# conditional score


def score_gradient(model, grid: TimeGrid, x0, v0, bins: ConditionalBinSpec, *,
                   n_paths, seed=0) -> EstimatorResult:
    """Directional transition-density score <grad log p_t(., y)(x0), v0>.

    Conditioning on x_t = y is realized by a bandwidth kernel around y; the
    reported mean is the kernel-weighted average of the gradient weight.
    Bandwidth bias is O(bandwidth^2) (recorded in metadata).
    """
    model.require("DX", "DZ")
    y = _as_vector(model, bins.target)
    t = grid.t_end

    def endpoint(x, vs, sums):
        dist = np.linalg.norm(x - y, axis=-1)
        kw = ((dist <= bins.bandwidth).astype(float) if bins.kernel == "box"
              else np.exp(-0.5 * (dist / bins.bandwidth) ** 2))
        vals = sums[0] / t
        return kw, kw * kw, kw * vals, kw * vals * vals

    res = _estimate(model, grid, x0, endpoint, vs=(v0,), sums=[weight(model, 0)],
                    n_paths=n_paths, seed=seed)
    sw, sw2, swv, swv2 = (c.total for c in res.columns)
    if sw <= 0:
        raise EmptyBin(f"no paths within bandwidth {bins.bandwidth} of target")
    mean = swv / sw
    var = max(0.0, swv2 / sw - mean * mean)
    n_eff = sw * sw / sw2 if sw2 > 0 else 0.0
    se = float(np.sqrt(var / max(n_eff, 1.0)))
    return replace(res, mean=mean, std_error=se, metadata={
        **res.metadata,
        "effective_count": n_eff,
        "in_bin_weight": sw,
        "bandwidth_bias_order": bins.bandwidth ** 2,
        "kernel": bins.kernel,
    })


# ---------------------------------------------------------------------------
# Lie group estimator


def lie_group_gradient(model, f, grid: TimeGrid, v0_alg, *, n_paths, seed=0) -> EstimatorResult:
    """Gradient at the group identity via the adjoint-transported weight.

    v0_alg is given in orthonormal Lie-algebra coordinates; the weight pairs
    Ad(g_k^-1) v0 with the algebra-valued noise increments.
    """
    if not isinstance(model, LieGroupModel):
        raise NotLieGroup("lie_group_gradient needs a LieGroupModel")
    f = as_observable(f)
    v0_alg = np.atleast_1d(np.asarray(v0_alg, dtype=float))
    if v0_alg.shape != (model.group_dim,):
        raise DimensionMismatch(
            f"algebra direction has shape {v0_alg.shape}, expected ({model.group_dim},)")
    t = grid.t_end
    s = model.noise_scale
    dot = make_dot(model.group_dim)

    def adjoint_weight(k, x, x_dB, dW, vs):
        return dot(model.ad_inverse(x, v0_alg), dW) / s

    def group_step(k, x, dW):  # the weight never reads X(x) dW, so none is made
        return model.geometry.step(x, dW, grid.dt), None

    return _estimate(model, grid, np.eye(model.mat_dim).reshape(-1),
                     lambda x, vs, sums: f(x) * sums[0] / t, sums=[adjoint_weight],
                     step=group_step, n_paths=n_paths, seed=seed)
