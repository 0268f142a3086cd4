"""Heat semigroups on differential forms for gradient h-Brownian systems.

Forms are extrinsic: a q-form is a callback on an ambient point and q
ambient (tangent) vectors.  Line integrals follow the Ito-sum-plus-
codifferential convention; the form semigroup wedges the noise-pairing
1-form with the line integral over the q input vectors.  Supported range:
q <= 2 in ambient dimension <= 3.

Wedge convention (pinned by the q = 1 reduction and the harmonic
fixed-point tests): for a 1-form a and a (q-1)-form b,
(a ^ b)(v_1..v_q) = sum_i (-1)^(i-1) a(v_i) b(v_1.. v_i-hat ..v_q),
with no factorial normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (DegreeMismatch, MissingCodifferential, NotClosed,
                     NotGradientSystem, UnsupportedDegree)
from .estimators import EstimatorResult, _estimate
from .models import as_observable, make_dot
from .paths import TimeGrid, weight
from .variation import _as_vector

_MAX_DEGREE = 2
_MAX_DIM = 3


def _wedge(psi, terms, t):
    """(Psi ^ b)(v_1..v_q) / t as above, psi[i] = Psi(v_(i+1)), terms[i] = b(..v_(i+1)-hat..)."""
    return sum((-1.0) ** i * psi[i] * terms[i] for i in range(len(psi))) / t


def _check_support(model, form):
    if form.degree > _MAX_DEGREE or model.n > _MAX_DIM:
        raise UnsupportedDegree(
            f"form estimators support degree <= {_MAX_DEGREE} in dimension <= {_MAX_DIM}, "
            f"got degree {form.degree} in dimension {model.n}")


@dataclass(frozen=True)
class FormField:
    """A degree-q differential form with optional codifferential callback.

    ``eval(x, v_1, .., v_q)`` must be alternating in the vector arguments;
    ``codiff(x, v_1, .., v_(q-1))`` evaluates the (q-1)-form delta^h applied
    to the given vectors (for q = 1 it takes no vectors and returns the
    scalar field delta^h phi).
    """

    degree: int
    eval: Callable
    codiff: Optional[Callable] = None
    is_closed: bool = False
    bound: Optional[float] = None
    name: str = ""

    def __call__(self, x, *vectors):
        if len(vectors) != self.degree:
            raise DegreeMismatch(
                f"degree-{self.degree} form evaluated on {len(vectors)} vectors")
        return self.eval(x, *vectors)


def tangent_frame(model, x) -> np.ndarray:
    """Deterministic orthonormal tangent frame at x via Gram-Schmidt.

    Seeds are the ambient standard basis in lexicographic order; near-zero
    projections are dropped, so the frame has the manifold dimension.
    """
    x = _as_vector(model, x)
    geom = model.geometry
    frame = []
    for i in range(model.n):
        v = np.zeros(model.n)
        v[i] = 1.0
        if geom is not None:
            v = geom.project_tangent(x[None], v[None])[0]
        for u in frame:
            v = v - np.dot(u, v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            frame.append(v / norm)
    return np.array(frame)


# ---------------------------------------------------------------------------
# line integrals: one step of the sum that ``simulate`` runs along each path


def _require_codiff(form):
    if form.codiff is None:
        raise MissingCodifferential(f"form {form.name or form.degree} has no codifferential")


def line_integral_step(form: FormField, grid: TimeGrid, rest):
    """Step k of the line integral of ``form`` on vs[rest], for ``simulate``'s sums."""
    def inc(k, x, x_dB, dW, vs):
        args = [vs[i] for i in rest]
        return form.eval(x, x_dB, *args) / form.degree - 0.5 * form.codiff(x, *args) * grid.dt
    return inc


# ---------------------------------------------------------------------------
# form semigroup estimators


def one_form_semigroup(model, form: FormField, grid: TimeGrid, x0, v0, *,
                       n_paths, seed=0) -> EstimatorResult:
    """Heat semigroup on a closed 1-form evaluated at (x0, v0)."""
    if form.degree != 1:
        raise DegreeMismatch("one_form_semigroup needs a 1-form")
    return q_form_semigroup(model, form, grid, x0, (v0,), n_paths=n_paths, seed=seed)


def q_form_semigroup(model, form: FormField, grid: TimeGrid, x0, v0s, *,
                     n_paths, seed=0) -> EstimatorResult:
    """Heat semigroup on a closed q-form evaluated on q tangent vectors.

    Per path: Psi(.) = sum_k <X(x_k) dB_k, v_k(.)> and the (q-1)-form line
    integral L(.); the estimate is the average of (Psi ^ L)(v0s) / t.
    """
    _check_support(model, form)
    q = form.degree
    if not form.is_closed:
        raise NotClosed("the form semigroup needs a closed form")
    if q >= 2 and not model.gradient_system:
        raise NotGradientSystem("q >= 2 needs a gradient h-Brownian system")
    if q == 1 and not (model.h_brownian or model.geometry is None):
        raise NotGradientSystem("the 1-form semigroup needs an h-Brownian system")
    if len(v0s) != q:
        raise DegreeMismatch(f"degree-{q} semigroup needs {q} vectors, got {len(v0s)}")
    _require_codiff(form)
    t = grid.t_end
    rests = [tuple(j for j in range(q) if j != i) for i in range(q)]

    def endpoint(x, vs, sums):
        # sums[q + i] integrates over the vectors in rests[i]
        return _wedge(sums[:q], sums[q:], t)

    return _estimate(model, grid, x0, endpoint, vs=v0s,
                     sums=[weight(model, i, metric=True) for i in range(q)]
                     + [line_integral_step(form, grid, rest) for rest in rests],
                     n_paths=n_paths, seed=seed,
                     metadata={"form": form.name, "degree": q})


def form_exterior_gradient(model, form: FormField, grid: TimeGrid, x0, v0s, *,
                           n_paths, seed=0) -> EstimatorResult:
    """Exterior derivative of the (q-1)-form semigroup, d(P_t phi), on q vectors.

    Per path wedges Psi with the endpoint pullback phi(x_t)(v_t(.)); for
    q = 1 (phi a function) this reduces to the derivative-free gradient
    estimator.
    """
    _check_support(model, form)
    q = form.degree + 1
    if q >= 2 and not model.gradient_system and model.geometry is not None:
        raise NotGradientSystem("form differentiation needs a gradient h-Brownian system")
    if len(v0s) != q:
        raise DegreeMismatch(f"expected {q} vectors, got {len(v0s)}")
    t = grid.t_end

    def endpoint(x, vs, psi):
        return _wedge(psi, [form.eval(x, *(vs[j] for j in range(q) if j != i))
                            for i in range(q)], t)

    return _estimate(model, grid, x0, endpoint, vs=v0s,
                     sums=[weight(model, i, metric=True) for i in range(q)],
                     n_paths=n_paths, seed=seed,
                     metadata={"form": form.name, "degree": q})


# ---------------------------------------------------------------------------
# built-in forms


def zero_form_from_observable(f) -> FormField:
    """Wrap a scalar observable as a degree-0 form (for d(P_t f) queries)."""
    obs = as_observable(f)
    return FormField(degree=0, eval=lambda x: obs(x), codiff=None,
                     is_closed=False, name=f"0form:{obs.name}")


def exact_one_form(f, *, minus_laplacian=None, name="") -> FormField:
    """The exact form df of a scalar observable, with delta^h df = -Lap^h f."""
    obs = as_observable(f)
    if obs.df is None:
        raise MissingCodifferential("exact_one_form needs the observable gradient df")

    def ev(x, v):
        return make_dot(v.shape[-1])(obs.df(x), v)

    codiff = None
    if minus_laplacian is not None:
        codiff = lambda x: minus_laplacian(x)
    return FormField(degree=1, eval=ev, codiff=codiff, is_closed=True,
                     name=name or f"d({obs.name})")


def angle_form_s1() -> FormField:
    """The harmonic angular 1-form on the unit circle in R^2."""

    def ev(x, v):
        return -x[..., 1] * v[..., 0] + x[..., 0] * v[..., 1]

    return FormField(degree=1, eval=ev, codiff=lambda x: np.zeros(x.shape[:-1]),
                     is_closed=True, bound=1.0, name="dtheta_s1")


def volume_form_s2() -> FormField:
    """The harmonic volume 2-form vol_x(u, v) = det[x, u, v] on S^2."""

    def ev(x, u, v):
        return make_dot(3)(x, np.cross(u, v))

    def codiff(x, u):
        return np.zeros(x.shape[:-1])

    return FormField(degree=2, eval=ev, codiff=codiff, is_closed=True,
                     bound=1.0, name="vol_s2")
