import numpy as np
import pytest

import semigrad as sg
from semigrad import TimeGrid, generate_noise
from semigrad.errors import MissingDerivative
from semigrad.models import make_so3_model, rotation_exp
from semigrad.paths import integrate_block
from semigrad.variation import hessian_flow, transport_step

from conftest import (make_quad_drift_model, make_sine_noise_model, one_path,
                      second_variation, transport_flow)


def _path(model, x0, grid, seed=0, idx=0, **kwargs):
    """``one_path`` on path idx of seed's noise."""
    return one_path(model, x0, grid, generate_noise(grid, seed, idx, model.m), **kwargs)


class TestFirstVariation:
    def test_ou_deterministic_decay(self, ou):
        grid = TimeGrid(1.0, 1000)
        _, _, _, fields, _ = _path(ou, [0.0], grid, vs=([1.0],))
        v = fields[0][0]
        # exact discrete solution (1 - dt)^k, within O(dt) of e^{-t}
        assert abs(v[-1, 0] - (1 - grid.dt) ** 1000) < 1e-14
        assert abs(v[-1, 0] - np.exp(-1)) < 2 * grid.dt

    def test_bm_constant(self, bm1):
        grid = TimeGrid(1.0, 100)
        _, _, _, fields, _ = _path(bm1, [0.0], grid, vs=([2.5],))
        assert np.array_equal(fields[0][0], np.full((101, 1), 2.5))

    def test_circle_tangency(self, circle):
        grid = TimeGrid(1.0, 400)
        states, _, _, fields, _ = _path(circle, [1.0, 0.0], grid, seed=5, vs=([0.0, 1.0],))
        inner = np.einsum("kn,kn->k", fields[0][0], states[0])
        assert np.max(np.abs(inner)) < 1e-9

    @pytest.mark.parametrize("alpha", [-1.0, 2.0, 0.0])
    def test_exact_linearity(self, circle, alpha):
        grid = TimeGrid(0.5, 200)
        _, _, _, fields, _ = _path(circle, [1.0, 0.0], grid, seed=9,
                                   vs=([0.0, 1.0], [0.0, alpha]))
        assert np.array_equal(fields[1][0], alpha * fields[0][0])

    def test_pathwise_derivative_consistency(self):
        # |v_T - (F(x0 + d v0) - F(x0)) / d| = O(d + dt), averaged over paths
        model = make_sine_noise_model()
        grid = TimeGrid(0.5, 250)
        delta = 1e-4
        gaps = []
        for p in range(100):
            noise = generate_noise(grid, 31, p, 1)
            base, _, _, fields, _ = one_path(model, [0.0], grid, noise, vs=([1.0],))
            pert, *_ = one_path(model, [delta], grid, noise)
            fd = (pert[0, -1, 0] - base[0, -1, 0]) / delta
            gaps.append(abs(fields[0][0][-1, 0] - fd))
        assert np.mean(gaps) < 50 * (delta + grid.dt)


class TestSecondVariation:
    def test_linear_model_vanishes(self, ou):
        grid = TimeGrid(1.0, 300)
        _, _, _, fields, _ = _path(ou, [0.5], grid, seed=2,
                                   **second_variation(ou, grid, [0.5], [1.0], [1.0]))
        assert np.array_equal(fields[2][0], np.zeros((301, 1)))

    def test_matches_fd_of_variation(self):
        model = make_quad_drift_model()
        grid = TimeGrid(0.5, 500)
        delta = 1e-4
        noise = generate_noise(grid, 11, 0, 1)
        _, _, _, (_, v, w), _ = one_path(model, [0.0], grid, noise,
                                         **second_variation(model, grid, [0.0], [1.0], [1.0]))
        _, _, _, (v_pert,), _ = one_path(model, [delta], grid, noise, vs=([1.0],))
        fd = (v_pert[0, -1, 0] - v[0, -1, 0]) / delta
        assert abs(w[0, -1, 0] - fd) < 50 * (grid.dt + delta)

    def test_swap_symmetry_flat(self):
        model = make_sine_noise_model()
        grid = TimeGrid(0.5, 200)
        noise = generate_noise(grid, 4, 0, 1)
        _, _, _, (_, _, w_uv), _ = one_path(model, [0.2], grid, noise,
                                            **second_variation(model, grid, [0.2], [1.0], [0.5]))
        _, _, _, (_, _, w_vu), _ = one_path(model, [0.2], grid, noise,
                                            **second_variation(model, grid, [0.2], [0.5], [1.0]))
        assert np.array_equal(w_uv[0], w_vu[0])

    @pytest.mark.usefixtures("one_worker")
    def test_missing_second_derivatives(self, bm1):
        # bel_hessian, which carries the second variation, checks for D2X first
        from dataclasses import replace

        model = replace(bm1, apply_D2X=None)
        with pytest.raises(MissingDerivative):
            sg.bel_hessian(model, lambda x: x[..., 0], TimeGrid(0.5, 50), [0.0], [1.0], [1.0],
                           n_paths=8, seed=0)

    def test_sphere3_path_pins(self):
        # one sphere3 path (seed 5, 200 steps): the final state, u, v, w, Hessian flow,
        # transport and vol_s2 line integral, as the per-path carriers that stepped stored
        # states returned them
        from semigrad.forms import line_integral_step, volume_form_s2

        sc = sg.get_scenario("sphere3")
        model = sc.make()
        grid = TimeGrid(1.0, 200)
        noise = generate_noise(grid, 5, 0, model.m)
        states, _, _, (u, v, w), (line,) = one_path(
            model, sc.x0, grid, noise, **second_variation(model, grid, sc.x0, sc.u0, sc.v0),
            sums=[line_integral_step(volume_form_s2(), grid, [1])])
        _, _, _, (W,), _ = one_path(model, sc.x0, grid, noise, vs=(sc.v0,),
                                    flow=hessian_flow(model, grid.dt))
        _, _, _, (P,), _ = one_path(model, sc.x0, grid, noise, vs=(sc.v0,),
                                    flow=transport_flow(model))
        got = {name: [float.hex(float(c)) for c in a[0, -1]]
               for name, a in (("x", states), ("u", u), ("v", v), ("w", w), ("W", W), ("P", P))}
        assert got == {
            "x": ["-0x1.8e573d1944796p-1", "-0x1.2832b3f6c9b9fp-1", "-0x1.f5c3246da9ca2p-3"],
            "u": ["-0x1.83321d984560cp-4", "0x1.82486d9292f68p-3", "-0x1.2956ad62a8ffbp-3"],
            "v": ["0x1.2137840db1342p-3", "-0x1.98f0a4ba14faap-4", "-0x1.b39c5438e9b5dp-3"],
            "w": ["-0x1.830fca90509d1p-3", "0x1.9d642529cb65fp-2", "-0x1.6efe451261ca4p-2"],
            "W": ["0x1.3a9cf9c5ae6ebp-2", "-0x1.af7e103fa8c48p-3", "-0x1.e9a1a7f7905d9p-2"],
            "P": ["0x1.038463917700ap-1", "-0x1.63ed9a41d91dep-2", "-0x1.93e2bbec55e4fp-1"],
        }
        assert float.hex(float(line[0])) == "-0x1.836241ac6bfdcp-5"


class TestHessianFlow:
    def test_flat_driftless_constant(self, bm1):
        grid = TimeGrid(1.0, 100)
        _, _, _, fields, _ = _path(bm1, [0.0], grid, vs=([1.0],),
                                   flow=hessian_flow(bm1, grid.dt))
        assert np.array_equal(fields[0][0], np.ones((101, 1)))

    def test_ou_exponential_decay(self, ou):
        grid = TimeGrid(1.0, 1000)
        _, _, _, fields, _ = _path(ou, [0.0], grid, seed=3, vs=([1.0],),
                                   flow=hessian_flow(ou, grid.dt))
        assert abs(fields[0][0][-1, 0] - np.exp(-1)) < 2 * grid.dt

    def test_sphere_norm_decay(self, sphere):
        grid = TimeGrid(1.0, 800)
        _, _, _, fields, _ = _path(sphere, [1.0, 0.0, 0.0], grid, seed=6,
                                   vs=([0.0, 0.0, 1.0],), flow=hessian_flow(sphere, grid.dt))
        norms = np.linalg.norm(fields[0][0], axis=-1)
        target = np.exp(-grid.times() / 2)  # Ric = g on S^2, drift derivative 0
        assert np.max(np.abs(norms - target)) < 3 * grid.dt

    def test_variation_hessian_flow_link_sphere(self, sphere):
        # conditional mean of v_t along the path equals the damped transport flow
        from semigrad.paths import noise_block
        from semigrad.variation import (covariant_drift_deriv,
                                        first_variation_step,
                                        hessian_flow_step)

        grid = TimeGrid(0.5, 200)
        n = 8000
        dWs = noise_block(grid, 91, 0, n, 3)
        states, *_ = integrate_block(sphere, np.tile([1.0, 0.0, 0.0], (n, 1)),
                                     grid, dWs.transpose(1, 0, 2))
        v = np.tile([0.0, 0.0, 1.0], (n, 1))
        W = v.copy()
        dd = covariant_drift_deriv(sphere)
        for k in range(grid.n_steps):
            x, x1 = states[:, k], states[:, k + 1]
            v = first_variation_step(sphere, x, x1, v, dWs[:, k], grid.dt)
            W = hessian_flow_step(sphere, x, x1, W, grid.dt, dd)
        se = np.sqrt(v.var(axis=0) / n)
        gap = np.abs(v.mean(axis=0) - W.mean(axis=0))
        assert np.all(gap < 3 * se + 3 * grid.dt)


class TestParallelTransport:
    def test_flat_constant(self, bm1):
        grid = TimeGrid(1.0, 50)
        _, _, _, fields, _ = _path(bm1, [0.0], grid, vs=([0.7],), flow=transport_flow(bm1))
        assert np.array_equal(fields[0][0], np.full((51, 1), 0.7))

    def test_norm_preserved_on_sphere(self, sphere):
        grid = TimeGrid(1.0, 300)
        _, _, _, fields, _ = _path(sphere, [0.0, 0.0, 1.0], grid, seed=8,
                                   vs=([1.0, 0.0, 0.0],), flow=transport_flow(sphere))
        norms = np.linalg.norm(fields[0][0], axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_zero_holonomy_along_great_circle(self, sphere):
        # the states are prescribed: the step callback moves to the next one
        K = 2000
        th = np.linspace(0, 2 * np.pi, K + 1)
        states = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=-1)
        for v0 in ([0.0, 0.0, 1.0], [0.0, 1.0, 0.0]):
            _, _, _, (out,), _ = integrate_block(
                sphere, states[:1], TimeGrid(1.0, K), np.zeros((K, 1, sphere.m)), vs=(v0,),
                flow=transport_flow(sphere), step=lambda k, x, dW: (states[k + 1][None], None))
            assert np.linalg.norm(out[0, -1] - np.asarray(v0)) < 5 * 2 * np.pi / K

    @pytest.mark.parametrize("name", ["circle", "sphere", "so3"])
    def test_transport_norm_is_linalg_norm(self, name, request):
        # the step's sqrt(dot(v, v)) rescaling against np.linalg.norm: bitwise for
        # n <= 3, where the written-out dot sums in the same order; to 4 ulp at n = 9
        rng = np.random.default_rng(3)
        B = 4096
        if name == "so3":
            model = make_so3_model()
            x, x1 = (rotation_exp(rng.standard_normal((B, 3))).reshape(B, 9) for _ in range(2))
        else:
            model = request.getfixturevalue(name)
            x, x1 = (p / np.linalg.norm(p, axis=-1, keepdims=True)
                     for p in rng.standard_normal((2, B, model.n)))
        v = rng.standard_normal((B, model.n)) * 10.0 ** rng.uniform(-150, 150, (B, 1))
        vp = model.geometry.project_tangent(x1, v)
        ref = vp * (np.linalg.norm(v, axis=-1) / np.linalg.norm(vp, axis=-1))[:, None]
        out = transport_step(model, x, x1, v)
        if model.n <= 3:
            assert np.array_equal(out, ref)
        else:
            assert np.max(np.abs(out - ref) / np.abs(ref).max(axis=-1, keepdims=True)) \
                <= 4 * np.finfo(float).eps


class TestMomentIdentities:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_ou_variation_moments_exact(self, ou, p):
        # deterministic flow: E|v_t|^p = ((1 - dt)^K)^p, analytic value e^{-pt}
        grid = TimeGrid(1.0, 1000)
        _, _, _, fields, _ = _path(ou, [0.0], grid, seed=1, vs=([1.0],))
        emp = abs(fields[0][0][-1, 0]) ** p
        assert abs(emp - np.exp(-p)) < p * np.exp(-p) * grid.dt
        assert emp <= np.exp(-p)  # the moment bound with c = -2, k = 1
