"""Hypothesis functionals, moment bounds, and cross-checking oracles.

These routines back the estimators: pointwise quadratic forms H_p whose
upper bounds control variation-flow moments, empirical moment and
martingale checks, a common-random-number finite-difference oracle for
gradients, and the gradient / Sobolev inequality checks.  Suprema of
pointwise quantities are approximated over a sampled point cloud and the
coverage is reported, never silently assumed global.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidConfig, MissingDerivative, MissingGeometry, UnsupportedModel,
                     ZeroDirection)
from .estimators import (EstimatorResult, _estimate, _map_paths, _mc_scalar, bel_gradient,
                         semigroup_value)
from .forms import exact_one_form, line_integral_step, tangent_frame
from .models import apply_right_inverse, as_observable, make_dot
from .paths import (NoiseStream, TimeGrid, _integer, sample_directions, sample_points,
                    simulate, weight)
from .variation import _as_vector, covariant_drift_deriv

HP_FORMS = ("rn_ito", "manifold", "section2_H2", "section3_H2")
_N_HP_SAMPLES = 128     # sampled points behind a supremum of H_p or |Y|
_MOMENT_SLACK = 0.02    # relative Euler slack of the moment bound
_SOBOLEV_SLACK = 0.05   # relative slack of the Sobolev inequality


@dataclass
class HpReport:
    """Sampled values of H_p(x)(v, v) / |v|^2 and their observed supremum."""

    p: float
    form_used: str
    samples: list = field(default_factory=list)  # (point, direction, value)
    sup_estimate: float = -np.inf


@dataclass
class BoundCheckReport:
    """Outcome of one inequality check: empirical value against a claimed bound."""

    name: str
    claimed_bound: float
    empirical: float
    margin: float
    passed: bool
    details: dict = field(default_factory=dict)


def _hp_terms(model, covariant):
    """The inner product, tangent projection and Ricci-minus-drift term of H_p.

    The flat forms take the ambient dot, no projection, no Ricci term and
    DZ; the covariant forms take the model metric, ``project_tangent``,
    ``ricci_op`` and ``covariant_drift_deriv``.  The third entry maps
    batched (x, v) to Ric(v, v) - 2 <D_v Z, v>.
    """
    geom = model.geometry if covariant else None
    if covariant:
        dot, drift_deriv = model.metric_dot, covariant_drift_deriv(model)
    else:
        model.require("DZ")
        ambient = make_dot(model.n)
        dot, drift_deriv = (lambda x, u, v: ambient(u, v)), model.DZ
    if geom is not None and geom.ricci_op is None:
        raise MissingGeometry("covariant H_p needs geometry.ricci_op")

    def ricci_minus_drift(x, v):
        out = -2.0 * dot(x, np.broadcast_to(drift_deriv(x, v), v.shape), v)
        if geom is not None:
            out = out + dot(x, geom.ricci_op(x, v), v)
        return out

    return dot, None if geom is None else geom.project_tangent, ricci_minus_drift


def _unit(dot, x, v):
    """Each row of v scaled to unit length in ``dot``."""
    norm_sq = dot(x, v, v)
    if np.any(norm_sq == 0):
        raise ZeroDirection("H_p needs a nonzero direction")
    return v / np.sqrt(norm_sq)[..., None]


def evaluate_hp(model, p, x, v, form="rn_ito") -> float:
    """Pointwise H_p(x)(v, v) / |v|^2 in the requested printed form.

    "rn_ito" uses ambient DX / DZ; "manifold" uses the covariant versions
    (tangent-projected DX, covariant drift derivative, Ricci term) in the
    model metric.  The section-specific H_2 variants coincide with the
    generic forms at the coefficient value p = 3.
    """
    if form not in HP_FORMS:
        raise InvalidConfig(f"unknown H_p form {form!r}")
    model.require("DX")
    x = _as_vector(model, x)[None, :]
    dot, project, ricci_minus_drift = _hp_terms(model, form in ("manifold", "section3_H2"))
    v = _unit(dot, x, _as_vector(model, v)[None, :])
    coeff = 1.0 if form in ("section2_H2", "section3_H2") else p - 2.0
    dx = model.DX(x, v)
    sq = quart = 0.0
    for i in range(model.m):
        col = dx[..., i] if project is None else project(x, dx[..., i])
        sq += float(dot(x, col, col)[0])
        quart += float(dot(x, col, v)[0]) ** 2
    return -float(ricci_minus_drift(x, v)[0]) + sq + coeff * quart


def hp_report(model, p, form="rn_ito", *, n_samples=256, seed=0) -> HpReport:
    """Sample H_p over a quasi-random point cloud and report the supremum."""
    points = sample_points(model, _integer("n_samples", n_samples), seed)
    report = HpReport(p=p, form_used=form)
    for x, v in zip(points, sample_directions(model, points, seed)):
        val = evaluate_hp(model, p, x, v, form=form)
        report.samples.append((x, v, val))
        report.sup_estimate = max(report.sup_estimate, val)
    return report


def variation_moment(model, grid: TimeGrid, x0, v0, p, *, n_paths, seed=0) -> EstimatorResult:
    """Monte Carlo E |v_t|^p of the first-variation flow."""
    model.require("DX", "DZ")
    return _estimate(model, grid, x0,
                     lambda x, vs, sums: np.sqrt(model.metric_dot(x, vs[0], vs[0])) ** p,
                     vs=(v0,), n_paths=n_paths, seed=seed)


def moment_bound_check(model, grid: TimeGrid, x0, v0, p, *, n_paths, seed=0) -> BoundCheckReport:
    """Compare E |v_t|^p against exp(c p t / 2) with c sampled from H_p.

    The constant k of the bound is taken as 1 (the flat-space value); the
    allowed slack covers the Euler discretization of the variation flow
    plus three standard errors.
    """
    form = "rn_ito" if model.geometry is None else "manifold"
    c = hp_report(model, p, form=form, n_samples=_N_HP_SAMPLES, seed=seed).sup_estimate
    res = variation_moment(model, grid, x0, v0, p, n_paths=n_paths, seed=seed)
    bound = float(np.exp(0.5 * c * p * grid.t_end))
    tol = bound * _MOMENT_SLACK + 3.0 * res.std_error
    passed = res.mean <= bound + tol
    return BoundCheckReport(
        name=f"moment_bound_p{p}", claimed_bound=bound, empirical=res.mean,
        margin=bound - res.mean, passed=bool(passed),
        details={"c": c, "std_error": res.std_error, "form": form,
                 "n_hp_samples": _N_HP_SAMPLES})


def martingale_mean_check(model, grid: TimeGrid, x0, v0, *, n_paths, seed=0) -> BoundCheckReport:
    """Check the gradient weight has mean zero and finite second moment.

    Reports the Monte Carlo mean of sum_k <Y(x_k) v_k, dB_k> (manifold
    models pair v with X dB in the metric), the integrability proxy
    integral E |Y v|^2 ds, and the blow-up fraction.
    """
    model.require("DX", "DZ")
    manifold = model.geometry is not None

    def second_moment(k, x, x_dB, dW, vs):
        if manifold:
            return model.metric_dot(x, vs[0], vs[0]) * grid.dt
        yv = apply_right_inverse(model, x, vs[0])
        return make_dot(model.m)(yv, yv) * grid.dt

    res = _estimate(model, grid, x0, lambda x, vs, sums: tuple(sums), vs=(v0,), n_paths=n_paths,
                    sums=[weight(model, 0), second_moment], seed=seed)
    n_ok = res.n_paths - res.n_rejected
    tol = 3.0 * res.std_error
    passed = abs(res.mean) <= tol and res.valid
    details = {
        "std_error": res.std_error,
        "second_moment_integral": res.columns[1].total / n_ok,
        "blowup_fraction": res.metadata.get("blowup_fraction", 0.0),
        "weight_variance": res.std_error ** 2 * n_ok,
    }
    if not res.valid:
        details["warning"] = "blow-up fraction above 1%"
    return BoundCheckReport(name="martingale_mean", claimed_bound=tol,
                            empirical=res.mean, margin=tol - abs(res.mean),
                            passed=bool(passed), details=details)


def finite_difference_oracle(model, f, grid: TimeGrid, x0, v0, *, delta=1e-3,
                             n_paths, seed=0) -> EstimatorResult:
    """Central difference of the semigroup value with common random numbers.

    Both perturbed starts reuse identical noise per path: a block steps its
    B paths from x+ and from x- as 2B stacked rows through one pass of its
    ``NoiseStream``, each step's (B, m) increments stacked twice.  Manifold
    models perturb along the geodesic through x0 with velocity v0.
    """
    f = as_observable(f)
    if isinstance(delta, (bool, np.bool_)) or delta == 0 or not np.isfinite(delta):
        raise InvalidConfig(f"delta must be finite and nonzero, got {delta}")
    x0 = _as_vector(model, x0)
    v0 = _as_vector(model, v0)
    if model.geometry is not None:
        if model.geometry.geodesic is None:
            raise UnsupportedModel("finite differences on manifolds need geometry.geodesic")
        x_plus = np.asarray(model.geometry.geodesic(x0, v0, delta), dtype=float)
        x_minus = np.asarray(model.geometry.geodesic(x0, v0, -delta), dtype=float)
    else:
        x_plus = x0 + delta * v0
        x_minus = x0 - delta * v0

    def block(lo, hi):
        B = hi - lo
        twice = (np.concatenate([dW, dW]) for dW in NoiseStream(grid, seed, lo, hi, model.m))
        x, alive, _, _ = simulate(model, grid, np.repeat([x_plus, x_minus], B, axis=0), twice)
        values = (f(x[:B]) - f(x[B:])) / (2.0 * delta)
        return (values,), alive[:B] & alive[B:]

    meta = {"delta": delta}
    return _mc_scalar(model, grid, n_paths, seed, block, metadata=meta)


def _exp_integral(alpha, t):
    """(exp(alpha t) - 1) / alpha, continuous at alpha = 0."""
    if abs(alpha) < 1e-12:
        return t
    return (np.exp(alpha * t) - 1.0) / alpha


def gronwall_gradient_bound(model, f, grid: TimeGrid, x0, v0, *, n_paths,
                            seed=0) -> BoundCheckReport:
    """Check |gradient estimate| <= y_sup sqrt((e^(alpha t)-1)/alpha) / t * sup|f|.

    alpha is the sampled supremum of the p = 2 quadratic form (the Gronwall
    rate of E|v_t|^2) and y_sup the sampled ellipticity constant sup|Y|.
    As alpha -> 0 the bound degenerates to sup|f| / sqrt(t).
    """
    f = as_observable(f)
    hp = hp_report(model, 2.0, form="rn_ito" if model.geometry is None else "manifold",
                   n_samples=_N_HP_SAMPLES, seed=seed)
    alpha, points = hp.sup_estimate, np.array([x for x, _, _ in hp.samples])
    if model.geometry is None:
        y_ops = [float(np.linalg.norm(model.Y(p[None])[0], 2)) for p in points]
        y_sup = max(y_ops)
    else:
        y_sup = 1.0  # Y = X* is a partial isometry for the induced metric
    sup_f = f.bound if f.bound is not None else float(np.max(np.abs(f(points))))
    t = grid.t_end
    bound = y_sup * np.sqrt(_exp_integral(alpha, t)) / t * sup_f
    est = bel_gradient(model, f, grid, x0, v0, n_paths=n_paths, seed=seed)
    empirical = abs(est.mean) - 3.0 * est.std_error
    passed = empirical <= bound
    return BoundCheckReport(name="gradient_sup_bound", claimed_bound=float(bound),
                            empirical=float(abs(est.mean)), margin=float(bound - empirical),
                            passed=bool(passed),
                            details={"alpha": alpha, "y_sup": y_sup, "sup_f": sup_f,
                                     "std_error": est.std_error})


def sobolev_norm_check(model, f, grid: TimeGrid, p, *, n_grid=16, n_paths,
                       seed=0) -> BoundCheckReport:
    """Check |P_t f|_(L^p) + |grad P_t f|_(L^p) <= (1 + k/t) |f|_(L^p).

    Compact built-ins only: the circle uses uniform-angle quadrature, the
    sphere uniform Monte Carlo quadrature.  k is estimated as the sampled
    sup of sqrt(integral_0^t E|v_s|^2 ds); p >= 2 or p = inf.
    """
    f = as_observable(f)
    if model.geometry is None or model.geometry.sample is None:
        raise UnsupportedModel("Sobolev check needs a compact built-in manifold")
    if not (p == np.inf or p >= 2):
        raise UnsupportedModel("Sobolev check supports p >= 2 or p = inf")
    n_grid = _integer("n_grid", n_grid)
    if model.kind == "circle":
        angles = np.arange(n_grid) * (2 * np.pi / n_grid)
        points = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    else:
        points = sample_points(model, n_grid, seed)

    # k^2 = sup_x int_0^t E |v_s|^2 ds, sampled at a few starting points
    k_sq = 0.0
    starts = points[:4]
    for x, v in zip(starts, sample_directions(model, starts, seed)):
        k_sq = max(k_sq, _variation_l2_integral(model, grid, x, v,
                                                n_paths=max(2000, n_paths // 20),
                                                seed=seed))
    k = float(np.sqrt(k_sq))

    values = np.empty(len(points))
    grads = np.empty(len(points))
    for i, x in enumerate(points):
        values[i] = semigroup_value(model, f, grid, x, n_paths=n_paths, seed=seed).mean
        frame = tangent_frame(model, x)
        comps = [bel_gradient(model, f, grid, x, tau, n_paths=n_paths, seed=seed).mean
                 for tau in frame]
        grads[i] = float(np.linalg.norm(comps))

    fvals = np.abs(f(points))
    if p == np.inf:
        lhs = float(np.max(np.abs(values)) + np.max(grads))
        fnorm = float(np.max(fvals))
    else:
        lhs = float(np.mean(np.abs(values) ** p) ** (1 / p)
                    + np.mean(grads ** p) ** (1 / p))
        fnorm = float(np.mean(fvals ** p) ** (1 / p))
    bound = (1.0 + k / grid.t_end) * fnorm
    passed = lhs <= bound * (1 + _SOBOLEV_SLACK)
    return BoundCheckReport(name=f"sobolev_p{p}", claimed_bound=float(bound),
                            empirical=lhs, margin=float(bound - lhs),
                            passed=bool(passed),
                            details={"k": k, "n_grid": len(points),
                                     "f_norm": fnorm})


def _variation_l2_integral(model, grid, x0, v0, *, n_paths, seed):
    """Monte Carlo integral_0^t E |v_s|^2 ds along the flow."""
    def square_norm(k, x, x_dB, dW, vs):
        return model.metric_dot(x, vs[0], vs[0]) * grid.dt

    return _estimate(model, grid, x0, lambda x, vs, sums: sums[0], vs=(v0,),
                     sums=[square_norm], n_paths=n_paths, seed=seed).mean


def exact_form_residuals(model, f, codiff, grid: TimeGrid, x0, *, n_paths, seed=0):
    """Pathwise residual of the exact-form line-integral identity.

    For phi = df the line integral must telescope to f(x_t) - f(x_0) up to
    the Euler truncation error.  ``codiff`` is the scalar field
    delta^h(df) = -Lap^h f.  Returns (residuals, scales) per path where
    scale = 1 + max_k |x_k| is the reported path-dependent constant.
    """
    f = as_observable(f)
    if f.df is None:
        raise MissingDerivative("the exact-form identity needs df")
    x0 = _as_vector(model, x0)
    line_integral = line_integral_step(exact_one_form(f, minus_laplacian=codiff), grid, ())

    def block(lo, hi):
        x0s = np.broadcast_to(x0, (hi - lo, model.n))
        f0 = f(x0s)
        scale = np.zeros(hi - lo)

        def track_scale(k, x, vs, alive):
            np.maximum(scale, np.linalg.norm(x, axis=-1), out=scale)

        x, alive, _, (line,) = simulate(model, grid, x0s,
                                        NoiseStream(grid, seed, lo, hi, model.m),
                                        sums=[line_integral], hook=track_scale)
        resid = np.abs(line - (f(x) - f0))
        return resid, 1.0 + scale, alive

    blocks = _map_paths(model, grid, n_paths, block)
    residuals = np.concatenate([b[0][b[2]] for b in blocks])
    scales = np.concatenate([b[1][b[2]] for b in blocks])
    return residuals, scales


def constraint_violation(model, grid: TimeGrid, x0, *, n_paths, seed=0) -> float:
    """Max constraint residual over all steps of all paths."""
    if model.geometry is None:
        return 0.0
    x0 = _as_vector(model, x0)

    def block(lo, hi):
        worst = 0.0

        def track(k, x, vs, alive):
            # x_k for k >= 1 is the state after the advance of step k - 1
            nonlocal worst
            if k > 0 and np.any(alive):
                res = np.linalg.norm(model.geometry.constraint(x), axis=-1)
                worst = max(worst, float(np.max(res[alive])))

        simulate(model, grid, np.broadcast_to(x0, (hi - lo, model.n)),
                 NoiseStream(grid, seed, lo, hi, model.m), hook=track)
        return worst

    return max(_map_paths(model, grid, n_paths, block))


def curvature_rho(model, x, *, n_dirs=64, seed=0) -> float:
    """inf over unit tangent v of Ric(v, v) - 2 <covariant drift deriv v, v>.

    The terms and the unit length are those of the covariant H_p, in the
    model metric; the n_dirs directions are ``sample_directions`` at x.
    """
    dot, _, ricci_minus_drift = _hp_terms(model, covariant=True)
    points = np.broadcast_to(_as_vector(model, x), (_integer("n_dirs", n_dirs), model.n))
    v = _unit(dot, points, sample_directions(model, points, seed))
    return float(np.min(ricci_minus_drift(points, v)))
