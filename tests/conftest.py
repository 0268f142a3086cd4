import numpy as np
import pytest

from semigrad import (make_bm_model, make_gradient_sphere_model,
                      make_ou_model, make_so3_model)
from semigrad.models import make_flat_model
from semigrad.paths import integrate_block
from semigrad.variation import (first_variation_step, initial_second_variation,
                                second_variation_step, transport_step)


@pytest.fixture
def one_worker(monkeypatch):
    """Compute every block in this process: SEMIGRAD_THREADS=1."""
    monkeypatch.setenv("SEMIGRAD_THREADS", "1")


@pytest.fixture(scope="session")
def bm1():
    return make_bm_model(1)


@pytest.fixture(scope="session")
def bm2():
    return make_bm_model(2)


@pytest.fixture(scope="session")
def ou():
    return make_ou_model(1.0)


@pytest.fixture(scope="session")
def circle():
    return make_gradient_sphere_model(2)


@pytest.fixture(scope="session")
def sphere():
    return make_gradient_sphere_model(3)


@pytest.fixture(scope="session")
def so3():
    return make_so3_model(1.0)


def make_quad_drift_model():
    """dx = dB + x^2 dt: nonzero second drift derivative, zero noise derivatives."""
    return make_flat_model(
        1, 1,
        X=lambda x: np.ones(x.shape + (1,)),
        Z=lambda x: x ** 2,
        DX=lambda x, v: np.zeros(x.shape + (1,)),
        D2X=lambda x, u, v: np.zeros(x.shape + (1,)),
        DZ=lambda x, v: 2 * x * v,
        D2Z=lambda x, u, v: 2 * u * v,
        DY=lambda x, u, v: np.zeros_like(u),
    )


def make_sine_noise_model(eps=0.25):
    """dx = (1 + eps sin x) dB: state-dependent noise with all derivatives."""
    return make_flat_model(1, 1, **sine_noise_coefficients(eps))


def sine_noise_coefficients(eps=0.25):
    """The coefficient callbacks of ``make_sine_noise_model``, noise as matrices."""
    sig = lambda x: 1.0 + eps * np.sin(x[..., 0])

    return dict(
        X=lambda x: sig(x)[..., None, None],
        Z=lambda x: np.zeros_like(x),
        DX=lambda x, v: (eps * np.cos(x[..., 0]))[..., None, None] * v[..., None],
        D2X=lambda x, u, v: (-eps * np.sin(x[..., 0]) * u[..., 0] * v[..., 0])[..., None, None],
        DZ=lambda x, v: np.zeros_like(v),
        D2Z=lambda x, u, v: np.zeros_like(u),
        Y=lambda x: (1.0 / sig(x))[..., None, None],
        DY=lambda x, u, v: (-(eps * np.cos(x[..., 0])) / sig(x) ** 2
                            * u[..., 0] * v[..., 0])[..., None],
    )


def make_cubic_blowup_model():
    """dx = dB + x^3 dt: explodes in finite time from most starting points."""
    return make_flat_model(
        1, 1,
        X=lambda x: np.ones(x.shape + (1,)),
        Z=lambda x: x ** 3,
        DX=lambda x, v: np.zeros(x.shape + (1,)),
        D2X=lambda x, u, v: np.zeros(x.shape + (1,)),
        DZ=lambda x, v: 3 * x ** 2 * v,
        D2Z=lambda x, u, v: 6 * x * u * v,
    )


def joint_tol(*results, factor=3.0):
    return factor * float(np.sqrt(sum(r.std_error ** 2 for r in results)))


def one_path(model, x0, grid, noise, **kwargs):
    """integrate_block on the (1, n) block of one path's (n_steps, m) increments."""
    return integrate_block(model, np.asarray(x0, dtype=float)[None], grid, noise[:, None],
                           **kwargs)


def second_variation(model, grid, x0, u0, v0):
    """vs and flow carrying u, v and their second variation w, as bel_hessian does."""
    x0, u0, v0 = (np.asarray(a, dtype=float)[None] for a in (x0, u0, v0))

    def flow(k, x, x1, vs, dW):
        u, v, w = vs
        u1 = first_variation_step(model, x, x1, u, dW, grid.dt)
        return [u1, first_variation_step(model, x, x1, v, dW, grid.dt),
                second_variation_step(model, x, x1, u, u1, v, w, dW, grid.dt)]

    return {"vs": (u0[0], v0[0], initial_second_variation(model, x0, u0, v0)[0]),
            "flow": flow}


def transport_flow(model):
    """Discrete parallel transport of every field as a simulate flow."""
    return lambda k, x, x1, vs, dW: [transport_step(model, x, x1, v) for v in vs]
