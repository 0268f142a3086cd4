"""Scenario, observable, form, oracle and estimator registries for the runner.

Each scenario bundles a model factory, default start point and directions,
named observables, named forms, and closed-form oracle values for the
estimator/observable pairs where one exists.  ``ESTIMATORS`` maps each
estimator id to the call that runs it on a scenario and a config.
Everything is addressable by a stable string id so experiments are
reproducible from flat configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from . import diagnostics, estimators, forms
from .errors import InvalidConfig, UnknownScenario
from .forms import angle_form_s1, exact_one_form, volume_form_s2
from .models import (DiffusionModel, LieGroupModel, PotentialField, ScalarObservable,
                     make_bm_model, make_gradient_sphere_model, make_ou_model,
                     make_so3_model, skew_from_axis)


@dataclass
class Scenario:
    """One registered diffusion scenario."""

    id: str
    description: str
    make: Callable[[], DiffusionModel]
    x0: np.ndarray
    v0: np.ndarray
    u0: np.ndarray
    observables: dict = field(default_factory=dict)
    forms: dict = field(default_factory=dict)
    oracles: dict = field(default_factory=dict)  # (estimator, observable) -> fn(cfg)

    def observable(self, name):
        if name not in self.observables:
            raise UnknownScenario(
                f"scenario {self.id!r} has no observable {name!r}; "
                f"known: {sorted(self.observables)}")
        return self.observables[name]

    def form(self, name):
        if name not in self.forms:
            raise UnknownScenario(
                f"scenario {self.id!r} has no form {name!r}; known: {sorted(self.forms)}")
        return self.forms[name]


def _linear(name, coeffs, bound=None):
    """The observable sum of c * x[..., i] over ``coeffs`` = {i: c}, in index order."""
    terms = sorted(coeffs.items())

    def df(x):
        out = np.zeros_like(x)
        for i, c in terms:
            out[..., i] = c
        return out

    return ScalarObservable(f=lambda x: reduce(np.add, (c * x[..., i] for i, c in terms)),
                            df=df, bound=bound, name=name)


def _obs_square_1d():
    return ScalarObservable(
        f=lambda x: x[..., 0] ** 2,
        df=lambda x: 2.0 * x,
        name="x_sq")


def _obs_one():
    return ScalarObservable(
        f=lambda x: np.ones(x.shape[:-1]),
        df=lambda x: np.zeros_like(x),
        bound=1.0, name="one")


def _obs_sin():
    """sin of the first ambient coordinate (smooth bounded, no special symmetry)."""

    def df(x):
        out = np.zeros_like(x)
        out[..., 0] = np.cos(x[..., 0])
        return out

    return ScalarObservable(f=lambda x: np.sin(x[..., 0]), df=df, bound=1.0,
                            name="sin")


_GRADIENT_ESTIMATORS = ("bel_gradient", "pathwise_gradient", "finite_difference",
                        "hessian_flow_gradient")


def _bm1d_scenario() -> Scenario:
    sc = Scenario(
        id="bm1d",
        description="standard Brownian motion on R, X = 1, Z = 0",
        make=lambda: make_bm_model(1),
        x0=np.array([0.0]), v0=np.array([1.0]), u0=np.array([1.0]))
    sc.observables = {
        "sin": _obs_sin(), "x": _linear("x", {0: 1.0}), "x_sq": _obs_square_1d(),
        "one": _obs_one()}

    def grad_sin(cfg):
        return float(np.exp(-cfg.t / 2) * np.cos(cfg.x0[0]) * cfg.v0[0])

    def value_sin(cfg):
        return float(np.exp(-cfg.t / 2) * np.sin(cfg.x0[0]))

    for est in _GRADIENT_ESTIMATORS:
        sc.oracles[(est, "sin")] = grad_sin
        sc.oracles[(est, "x")] = lambda cfg: float(cfg.v0[0])
        sc.oracles[(est, "x_sq")] = lambda cfg: float(2 * cfg.x0[0] * cfg.v0[0])
        sc.oracles[(est, "one")] = lambda cfg: 0.0
    sc.oracles[("semigroup_value", "sin")] = value_sin
    sc.oracles[("semigroup_value", "one")] = lambda cfg: 1.0
    sc.oracles[("semigroup_value", "x_sq")] = lambda cfg: float(cfg.x0[0] ** 2 + cfg.t)
    for variant in ("bel_hessian_weights", "bel_hessian_nested"):
        sc.oracles[(variant, "sin")] = lambda cfg: float(
            -np.exp(-cfg.t / 2) * np.sin(cfg.x0[0]) * cfg.u0[0] * cfg.v0[0])
        sc.oracles[(variant, "x_sq")] = lambda cfg: float(2 * cfg.u0[0] * cfg.v0[0])
        sc.oracles[(variant, "x")] = lambda cfg: 0.0
    sc.oracles[("score_gradient", "one")] = lambda cfg: float(
        (cfg.y[0] - cfg.x0[0]) / cfg.t * cfg.v0[0])

    def potential_sin(cfg):
        # a potential depending on t only factorizes out of the Feynman-Kac weight
        kind, c = parse_potential(cfg.potential)
        return float(np.exp(_POTENTIALS[kind][2](c, cfg.t)) * np.exp(-cfg.t / 2)
                     * np.cos(cfg.x0[0]) * cfg.v0[0])

    sc.oracles[("potential_gradient", "sin")] = potential_sin
    return sc


def _ou1d_scenario() -> Scenario:
    sc = Scenario(
        id="ou1d",
        description="Ornstein-Uhlenbeck on R, dx = -x dt + dB",
        make=lambda: make_ou_model(1.0),
        x0=np.array([0.0]), v0=np.array([1.0]), u0=np.array([1.0]))
    sc.observables = {
        "sin": _obs_sin(), "x": _linear("x", {0: 1.0}), "x_sq": _obs_square_1d(),
        "one": _obs_one()}

    for est in _GRADIENT_ESTIMATORS:
        sc.oracles[(est, "x")] = lambda cfg: float(np.exp(-cfg.t) * cfg.v0[0])
        sc.oracles[(est, "x_sq")] = lambda cfg: float(
            2 * cfg.x0[0] * np.exp(-2 * cfg.t) * cfg.v0[0])
        sc.oracles[(est, "one")] = lambda cfg: 0.0
    sc.oracles[("semigroup_value", "x_sq")] = lambda cfg: float(
        cfg.x0[0] ** 2 * np.exp(-2 * cfg.t) + (1 - np.exp(-2 * cfg.t)) / 2)
    sc.oracles[("semigroup_value", "x")] = lambda cfg: float(cfg.x0[0] * np.exp(-cfg.t))
    for variant in ("bel_hessian_weights", "bel_hessian_nested"):
        sc.oracles[(variant, "x_sq")] = lambda cfg: float(
            2 * np.exp(-2 * cfg.t) * cfg.u0[0] * cfg.v0[0])
        sc.oracles[(variant, "x")] = lambda cfg: 0.0
    return sc


def _circle_scenario() -> Scenario:
    theta0 = 0.0
    x0 = np.array([np.cos(theta0), np.sin(theta0)])
    v0 = np.array([-np.sin(theta0), np.cos(theta0)])
    sc = Scenario(
        id="circle",
        description="gradient Brownian system on the unit circle in R^2",
        make=lambda: make_gradient_sphere_model(2),
        x0=x0, v0=v0, u0=v0.copy())
    # sin(theta) = x_2 and cos(theta) = x_1 on the embedded circle
    sc.observables = {
        "sin": _linear("sin", {1: 1.0}, 1.0), "cos": _linear("cos", {0: 1.0}, 1.0),
        "one": _obs_one()}
    sc.forms = {
        "dtheta_s1": angle_form_s1(),
        "exact:sin": exact_one_form(
            sc.observables["sin"],
            minus_laplacian=lambda x: x[..., 1],  # delta(d sin) = -Lap sin = sin
            name="d(sin)"),
    }

    def grad_sin(cfg):
        # P_t sin = e^(-t/2) sin; pairs with the tangent component of v0
        tang = float(-np.sin(_theta(cfg.x0)) * cfg.v0[0] + np.cos(_theta(cfg.x0)) * cfg.v0[1])
        return float(np.exp(-cfg.t / 2) * np.cos(_theta(cfg.x0)) * tang)

    for est in _GRADIENT_ESTIMATORS:
        sc.oracles[(est, "sin")] = grad_sin
        sc.oracles[(est, "one")] = lambda cfg: 0.0
    sc.oracles[("semigroup_value", "sin")] = lambda cfg: float(
        np.exp(-cfg.t / 2) * np.sin(_theta(cfg.x0)))
    # harmonic forms are semigroup fixed points: the oracle is dtheta(v0)
    sc.oracles[("one_form_semigroup", "dtheta_s1")] = lambda cfg: float(
        np.dot([-np.sin(_theta(cfg.x0)), np.cos(_theta(cfg.x0))], cfg.v0))
    sc.oracles[("one_form_semigroup", "exact:sin")] = grad_sin
    sc.oracles[("q_form_semigroup", "dtheta_s1")] = sc.oracles[("one_form_semigroup", "dtheta_s1")]
    sc.oracles[("form_exterior_gradient", "sin")] = grad_sin
    return sc


def _theta(x):
    return float(np.arctan2(x[1], x[0]))


def _sphere3_scenario() -> Scenario:
    x0 = np.array([1.0, 0.0, 0.0])
    v0 = np.array([0.0, 0.0, 1.0])
    u0 = np.array([0.0, 1.0, 0.0])
    sc = Scenario(
        id="sphere3",
        description="gradient Brownian system on the unit sphere S^2 in R^3",
        make=lambda: make_gradient_sphere_model(3),
        x0=x0, v0=v0, u0=u0)
    sc.observables = {
        "height": _linear("height", {2: 1.0}, 1.0),
        "sin": _obs_sin(),
        "one": _obs_one()}
    sc.forms = {"vol_s2": volume_form_s2()}

    def grad_height(cfg):
        # the height function is a degree-1 eigenfunction: P_t f = e^(-t) f
        return float(np.exp(-cfg.t) * cfg.v0[2])

    for est in _GRADIENT_ESTIMATORS:
        sc.oracles[(est, "height")] = grad_height
        sc.oracles[(est, "one")] = lambda cfg: 0.0
    sc.oracles[("semigroup_value", "height")] = lambda cfg: float(
        np.exp(-cfg.t) * cfg.x0[2])
    sc.oracles[("q_form_semigroup", "vol_s2")] = lambda cfg: float(
        np.dot(cfg.x0, np.cross(cfg.u0, cfg.v0)))
    return sc


def _so3_scenario() -> Scenario:
    x0 = np.eye(3).reshape(-1)
    v0 = np.array([1.0, 0.0, 0.0])  # algebra coordinates
    sc = Scenario(
        id="so3",
        description="left-invariant Brownian system on SO(3), bi-invariant metric",
        make=lambda: make_so3_model(1.0),
        x0=x0, v0=v0, u0=v0.copy())
    sc.observables = {
        "trace": _linear("trace", {0: 1.0, 4: 1.0, 8: 1.0}, 3.0),
        # tr(E_1 g) = g[1,2] - g[2,1] in row-major flattening
        "trace_e1": _linear("trace_e1", {5: 1.0, 7: -1.0}, 2.0), "one": _obs_one()}

    def grad_trace(cfg):
        return 0.0  # d(trace) vanishes on skew directions at the identity

    def grad_trace_e1(cfg):
        # tr(E_1 g) is a Casimir eigenfunction: P_t f = e^(-t) f for unit scale.
        # v0 is in algebra coordinates or a flattened skew matrix, whose [7] is v[0]
        v = cfg.v0[7] if cfg.v0.shape == (9,) else cfg.v0[0]
        return float(np.exp(-cfg.t) * (-2.0) * v)

    for est in ("bel_gradient", "lie_group_gradient", "finite_difference"):
        sc.oracles[(est, "trace")] = grad_trace
        sc.oracles[(est, "trace_e1")] = grad_trace_e1
        sc.oracles[(est, "one")] = lambda cfg: 0.0
    sc.oracles[("semigroup_value", "trace")] = lambda cfg: float(3.0 * np.exp(-cfg.t))
    return sc


_SCENARIOS: dict[str, Scenario] = {sc.id: sc for sc in (
    _bm1d_scenario(), _ou1d_scenario(), _circle_scenario(), _sphere3_scenario(),
    _so3_scenario())}


def scenario_ids():
    return sorted(_SCENARIOS)


def get_scenario(scenario_id: str) -> Scenario:
    try:
        return _SCENARIOS[scenario_id]
    except KeyError:
        raise UnknownScenario(
            f"unknown scenario {scenario_id!r}; known: {scenario_ids()}") from None


def ambient_direction(model, v):
    """Lie-group algebra coordinates -> flattened skew matrix; others unchanged."""
    v = np.asarray(v, dtype=float)
    if isinstance(model, LieGroupModel) and v.shape == (model.group_dim,):
        return skew_from_axis(v).reshape(-1)
    return v


# kind -> (V(c, t), sup of V over [0, T], integral of V over [0, T])
_POTENTIALS = {
    "const": (lambda c, t: c, lambda c, T: c, lambda c, T: c * T),
    "ramp": (lambda c, t: c * t, lambda c, T: max(c * T, 0.0), lambda c, T: c * T ** 2 / 2),
}


def parse_potential(text):
    """``const:<c>`` (V = c) or ``ramp:<a>`` (V = a t) -> (kind, value); "" is const:0."""
    kind, _, arg = (text or "const:0").partition(":")
    try:
        value = float(arg or 0.0)
    except ValueError:
        value = np.nan
    if kind not in _POTENTIALS or not np.isfinite(value):
        raise InvalidConfig(f"unknown potential {text!r} (use const:<c> or ramp:<a>)")
    return kind, value


def _gradient(fn):
    """df(v0) from f, x0 and one ambient direction."""
    return lambda model, sc, cfg, grid, kw: fn(
        model, sc.observable(cfg.observable), grid, cfg.x0, ambient_direction(model, cfg.v0), **kw)


def _hessian(variant):
    return lambda model, sc, cfg, grid, kw: estimators.bel_hessian(
        model, sc.observable(cfg.observable), grid, cfg.x0, ambient_direction(model, cfg.u0),
        ambient_direction(model, cfg.v0), variant=variant, n_inner=cfg.n_inner, **kw)


def _potential_gradient(model, sc, cfg, grid, kw):
    kind, c = parse_potential(cfg.potential)
    V, sup, _ = _POTENTIALS[kind]
    potential = PotentialField(V=lambda t, x: np.full(x.shape[:-1], V(c, t)),
                               dV=lambda t, x: np.zeros_like(x), upper_bound=sup(c, cfg.t),
                               name=cfg.potential or "const:0")
    return estimators.potential_gradient(model, sc.observable(cfg.observable), potential,
                                         grid, cfg.x0, ambient_direction(model, cfg.v0), **kw)


def _score_gradient(model, sc, cfg, grid, kw):
    if cfg.y is None:
        raise InvalidConfig("score_gradient needs a target point y")
    bins = estimators.ConditionalBinSpec(target=np.asarray(cfg.y, float),
                                         bandwidth=cfg.bandwidth, kernel=cfg.kernel)
    return estimators.score_gradient(model, grid, cfg.x0, ambient_direction(model, cfg.v0),
                                     bins, **kw)


def _vectors(model, cfg, one):
    """(v0,) if ``one`` else (u0, v0), as ambient vectors."""
    return tuple(ambient_direction(model, v) for v in ((cfg.v0,) if one else (cfg.u0, cfg.v0)))


def _q_form_semigroup(model, sc, cfg, grid, kw):
    form = sc.form(cfg.form)
    return forms.q_form_semigroup(model, form, grid, cfg.x0,
                                  _vectors(model, cfg, form.degree == 1), **kw)


def _form_exterior_gradient(model, sc, cfg, grid, kw):
    form = (sc.form(cfg.form) if cfg.form else
            forms.zero_form_from_observable(sc.observable(cfg.observable)))
    return forms.form_exterior_gradient(model, form, grid, cfg.x0,
                                        _vectors(model, cfg, form.degree == 0), **kw)


# id -> call(model, scenario, cfg, grid, {n_paths, seed}) -> EstimatorResult
ESTIMATORS = {
    "semigroup_value": lambda model, sc, cfg, grid, kw: estimators.semigroup_value(
        model, sc.observable(cfg.observable), grid, cfg.x0, **kw),
    "pathwise_gradient": _gradient(estimators.pathwise_gradient),
    "bel_gradient": _gradient(estimators.bel_gradient),
    "bel_hessian_weights": _hessian("weights"),
    "bel_hessian_nested": _hessian("nested"),
    "potential_gradient": _potential_gradient,
    "hessian_flow_gradient": _gradient(estimators.hessian_flow_gradient),
    "score_gradient": _score_gradient,
    "lie_group_gradient": lambda model, sc, cfg, grid, kw: estimators.lie_group_gradient(
        model, sc.observable(cfg.observable), grid, cfg.v0, **kw),
    "finite_difference": lambda model, sc, cfg, grid, kw: diagnostics.finite_difference_oracle(
        model, sc.observable(cfg.observable), grid, cfg.x0, ambient_direction(model, cfg.v0),
        delta=cfg.delta, **kw),
    "one_form_semigroup": lambda model, sc, cfg, grid, kw: forms.one_form_semigroup(
        model, sc.form(cfg.form), grid, cfg.x0, ambient_direction(model, cfg.v0), **kw),
    "q_form_semigroup": _q_form_semigroup,
    "form_exterior_gradient": _form_exterior_gradient,
}
ESTIMATOR_IDS = tuple(ESTIMATORS)
