import numpy as np
import pytest

import semigrad as sg
from semigrad import TimeGrid, generate_noise, integrate_ito
from semigrad.errors import BlownUpPath, MissingDerivative
from semigrad.models import make_so3_model, rotation_exp
from semigrad.variation import (evolve_first_variation, evolve_hessian_flow,
                                evolve_second_variation, parallel_transport, transport_step)

from conftest import make_cubic_blowup_model, make_quad_drift_model, make_sine_noise_model


def _path(model, x0, grid, seed=0, idx=0):
    noise = generate_noise(grid, seed, idx, model.m)
    return integrate_ito(model, x0, grid, noise), noise


class TestFirstVariation:
    def test_ou_deterministic_decay(self, ou):
        grid = TimeGrid(1.0, 1000)
        traj, noise = _path(ou, [0.0], grid)
        v = evolve_first_variation(ou, traj, noise, [1.0])
        # exact discrete solution (1 - dt)^k, within O(dt) of e^{-t}
        assert abs(v.vectors[-1, 0] - (1 - grid.dt) ** 1000) < 1e-14
        assert abs(v.vectors[-1, 0] - np.exp(-1)) < 2 * grid.dt

    def test_bm_constant(self, bm1):
        grid = TimeGrid(1.0, 100)
        traj, noise = _path(bm1, [0.0], grid)
        v = evolve_first_variation(bm1, traj, noise, [2.5])
        assert np.array_equal(v.vectors, np.full((101, 1), 2.5))

    def test_circle_tangency(self, circle):
        grid = TimeGrid(1.0, 400)
        traj, noise = _path(circle, [1.0, 0.0], grid, seed=5)
        v = evolve_first_variation(circle, traj, noise, [0.0, 1.0])
        inner = np.einsum("kn,kn->k", v.vectors, traj.states)
        assert np.max(np.abs(inner)) < 1e-9

    @pytest.mark.parametrize("alpha", [-1.0, 2.0, 0.0])
    def test_exact_linearity(self, circle, alpha):
        grid = TimeGrid(0.5, 200)
        traj, noise = _path(circle, [1.0, 0.0], grid, seed=9)
        base = evolve_first_variation(circle, traj, noise, [0.0, 1.0])
        scaled = evolve_first_variation(circle, traj, noise, [0.0, alpha])
        assert np.array_equal(scaled.vectors, alpha * base.vectors)

    def test_blown_up_rejected(self):
        model = make_cubic_blowup_model()
        model.blow_up_radius = 100.0
        grid = TimeGrid(1.0, 200)
        traj, noise = _path(model, [3.0], grid)
        assert traj.blew_up
        with pytest.raises(BlownUpPath):
            evolve_first_variation(model, traj, noise, [1.0])

    def test_pathwise_derivative_consistency(self):
        # |v_T - (F(x0 + d v0) - F(x0)) / d| = O(d + dt), averaged over paths
        model = make_sine_noise_model()
        grid = TimeGrid(0.5, 250)
        delta = 1e-4
        gaps = []
        for p in range(100):
            noise = generate_noise(grid, 31, p, 1)
            base = integrate_ito(model, [0.0], grid, noise)
            pert = integrate_ito(model, [delta], grid, noise)
            v = evolve_first_variation(model, base, noise, [1.0])
            fd = (pert.states[-1, 0] - base.states[-1, 0]) / delta
            gaps.append(abs(v.vectors[-1, 0] - fd))
        assert np.mean(gaps) < 50 * (delta + grid.dt)


class TestSecondVariation:
    def test_linear_model_vanishes(self, ou):
        grid = TimeGrid(1.0, 300)
        traj, noise = _path(ou, [0.5], grid, seed=2)
        u = evolve_first_variation(ou, traj, noise, [1.0])
        v = evolve_first_variation(ou, traj, noise, [1.0])
        w = evolve_second_variation(ou, traj, noise, u, v)
        assert np.array_equal(w.vectors, np.zeros((301, 1)))

    def test_matches_fd_of_variation(self):
        model = make_quad_drift_model()
        grid = TimeGrid(0.5, 500)
        delta = 1e-4
        noise = generate_noise(grid, 11, 0, 1)
        traj = integrate_ito(model, [0.0], grid, noise)
        u = evolve_first_variation(model, traj, noise, [1.0])
        v = evolve_first_variation(model, traj, noise, [1.0])
        w = evolve_second_variation(model, traj, noise, u, v)
        pert = integrate_ito(model, [delta], grid, noise)
        v_pert = evolve_first_variation(model, pert, noise, [1.0])
        fd = (v_pert.vectors[-1, 0] - v.vectors[-1, 0]) / delta
        assert abs(w.vectors[-1, 0] - fd) < 50 * (grid.dt + delta)

    def test_swap_symmetry_flat(self):
        model = make_sine_noise_model()
        grid = TimeGrid(0.5, 200)
        noise = generate_noise(grid, 4, 0, 1)
        traj = integrate_ito(model, [0.2], grid, noise)
        u = evolve_first_variation(model, traj, noise, [1.0])
        v = evolve_first_variation(model, traj, noise, [0.5])
        w_uv = evolve_second_variation(model, traj, noise, u, v)
        w_vu = evolve_second_variation(model, traj, noise, v, u)
        assert np.array_equal(w_uv.vectors, w_vu.vectors)

    def test_missing_second_derivatives(self, bm1):
        from dataclasses import replace

        model = replace(bm1, apply_D2X=None)
        grid = TimeGrid(0.5, 50)
        traj, noise = _path(bm1, [0.0], grid)
        u = evolve_first_variation(bm1, traj, noise, [1.0])
        with pytest.raises(MissingDerivative):
            evolve_second_variation(model, traj, noise, u, u)


class TestHessianFlow:
    def test_flat_driftless_constant(self, bm1):
        grid = TimeGrid(1.0, 100)
        traj, _ = _path(bm1, [0.0], grid)
        W = evolve_hessian_flow(bm1, traj, [1.0])
        assert np.array_equal(W.vectors, np.ones((101, 1)))

    def test_ou_exponential_decay(self, ou):
        grid = TimeGrid(1.0, 1000)
        traj, _ = _path(ou, [0.0], grid, seed=3)
        W = evolve_hessian_flow(ou, traj, [1.0])
        assert abs(W.vectors[-1, 0] - np.exp(-1)) < 2 * grid.dt

    def test_sphere_norm_decay(self, sphere):
        grid = TimeGrid(1.0, 800)
        traj, _ = _path(sphere, [1.0, 0.0, 0.0], grid, seed=6)
        W = evolve_hessian_flow(sphere, traj, [0.0, 0.0, 1.0])
        norms = np.linalg.norm(W.vectors, axis=-1)
        target = np.exp(-grid.times() / 2)  # Ric = g on S^2, drift derivative 0
        assert np.max(np.abs(norms - target)) < 3 * grid.dt

    def test_variation_hessian_flow_link_sphere(self, sphere):
        # conditional mean of v_t along the path equals the damped transport flow
        from semigrad.paths import integrate_block, noise_block
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
        traj, _ = _path(bm1, [0.0], grid)
        out = parallel_transport(bm1, traj, [0.7])
        assert np.array_equal(out.vectors, np.full((51, 1), 0.7))

    def test_norm_preserved_on_sphere(self, sphere):
        grid = TimeGrid(1.0, 300)
        traj, _ = _path(sphere, [0.0, 0.0, 1.0], grid, seed=8)
        out = parallel_transport(sphere, traj, [1.0, 0.0, 0.0])
        norms = np.linalg.norm(out.vectors, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_zero_holonomy_along_great_circle(self, sphere):
        K = 2000
        th = np.linspace(0, 2 * np.pi, K + 1)
        states = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=-1)
        traj = sg.Trajectory(states=states, grid=TimeGrid(1.0, K))
        for v0 in ([0.0, 0.0, 1.0], [0.0, 1.0, 0.0]):
            out = parallel_transport(sphere, traj, v0)
            assert np.linalg.norm(out.vectors[-1] - np.asarray(v0)) < 5 * 2 * np.pi / K

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

    def test_blown_up_rejected_on_flat_models(self):
        # every carrier, flat transport included, refuses a flagged trajectory
        model = make_cubic_blowup_model()
        model.blow_up_radius = 100.0
        traj, noise = _path(model, [3.0], TimeGrid(1.0, 200))
        assert traj.blew_up
        with pytest.raises(BlownUpPath):
            parallel_transport(model, traj, [1.0])
        with pytest.raises(BlownUpPath):
            evolve_hessian_flow(model, traj, [1.0])


class TestMomentIdentities:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_ou_variation_moments_exact(self, ou, p):
        # deterministic flow: E|v_t|^p = ((1 - dt)^K)^p, analytic value e^{-pt}
        grid = TimeGrid(1.0, 1000)
        traj, noise = _path(ou, [0.0], grid, seed=1)
        v = evolve_first_variation(ou, traj, noise, [1.0])
        emp = abs(v.vectors[-1, 0]) ** p
        assert abs(emp - np.exp(-p)) < p * np.exp(-p) * grid.dt
        assert emp <= np.exp(-p)  # the moment bound with c = -2, k = 1
