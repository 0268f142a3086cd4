from dataclasses import fields, replace

import numpy as np
import pytest

import semigrad as sg
from semigrad.errors import Degenerate, DimensionMismatch, MissingDerivative
from semigrad.models import (DiffusionModel, _gram_right_inverse, apply_coeff,
                             apply_right_inverse, axis_from_skew, make_flat_model,
                             rotation_exp, skew_from_axis, with_fd_derivatives)
from semigrad.paths import sample_directions, sample_points

from conftest import make_sine_noise_model, sine_noise_coefficients


def check_directional_derivative(fn, dfn, points, directions, *, rel_tol=1e-5,
                                 step=1e-6):
    """Max relative error of a declared directional derivative vs central FD."""
    declared = dfn(points, directions)
    fd = (fn(points + step * directions) - fn(points - step * directions)) / (2 * step)
    scale = np.maximum(np.max(np.abs(fd)), 1.0)
    err = np.max(np.abs(declared - fd)) / scale
    return err, err <= rel_tol


class TestRightInverse:
    def test_identity_X(self, bm1):
        assert np.allclose(bm1.Y(np.array([[0.3]]))[0], [[1.0]])

    def test_scaled_X(self):
        model = sg.make_bm_model(1, sigma=2.0)
        assert np.allclose(model.Y(np.array([[0.0]]))[0], [[0.5]])

    def test_sphere_XY_is_tangent_projection(self, sphere):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            v = rng.standard_normal(3)
            v -= np.dot(v, x) * x
            Xm = sphere.X(x[None])[0]
            Ym = sphere.Y(x[None])[0]
            assert np.allclose(Xm @ (Ym @ v), v, atol=1e-10)

    def test_computed_inverse_matches_pseudo(self):
        model = make_flat_model(1, 2, X=lambda x: np.broadcast_to(
            np.array([[1.0, 1.0]]), x.shape[:-1] + (1, 2)), Z=lambda x: 0 * x)
        Y = model.Y(np.array([[0.0]]))[0]
        assert np.allclose(Y, [[0.5], [0.5]])

    @pytest.mark.parametrize("call", ["right_inverse", "apply_right_inverse", "bel_gradient"])
    @pytest.mark.usefixtures("one_worker")
    def test_missing_right_inverse_raises_one_error(self, bm1, call):
        # a model that declares no Y fails the same typed way wherever Y is read
        model = replace(bm1, apply_Y=None)
        x = np.array([[0.3]])
        calls = {"right_inverse": lambda: model.Y(x),
                 "apply_right_inverse": lambda: apply_right_inverse(model, x, x),
                 "bel_gradient": lambda: sg.bel_gradient(
                     model, lambda x: x[..., 0], sg.TimeGrid(1.0, 4), [0.3], [1.0],
                     n_paths=8, seed=0)}
        with pytest.raises(MissingDerivative, match="does not supply Y"):
            calls[call]()

    @pytest.mark.usefixtures("one_worker")
    def test_defaulted_inverse_raises_typed_error(self):
        # the Y that make_flat_model fills in carries the same singularity guard
        model = make_flat_model(2, 2, X=lambda x: np.zeros(x.shape[:-1] + (2, 2)),
                                Z=lambda x: 0 * x, DX=lambda x, v: np.zeros(x.shape + (2,)),
                                DZ=lambda x, v: 0 * v)
        with pytest.raises(Degenerate):
            model.Y(np.array([[0.0, 0.0]]))
        with pytest.raises(Degenerate):
            sg.bel_gradient(model, lambda x: x[..., 0], sg.TimeGrid(1.0, 4), [0.0, 0.0],
                            [1.0, 0.0], n_paths=8, seed=0)


class TestBuiltinIdentities:
    def test_right_inverse_identity_all_builtins(self, bm1, ou, circle, sphere, so3):
        rng = np.random.default_rng(4)
        for model in (bm1, ou, circle, sphere, so3):
            pts = sample_points(model, 20, seed=3)
            dirs = sample_directions(model, pts, seed=5)
            xv = apply_coeff(model, pts, apply_right_inverse(model, pts, dirs))
            assert np.max(np.abs(xv - dirs)) < 1e-10

    def test_coefficient_inverse_pair_nonlinear(self):
        model = make_sine_noise_model()
        x = np.linspace(-2, 2, 9)[:, None]
        u = np.ones((9, 1))
        v = np.full((9, 1), 0.7)
        # DX(u)(Y v) + X DY(u)(v) = 0
        yu = apply_right_inverse(model, x, v)
        t1 = np.einsum("bnm,bm->bn", model.DX(x, u), yu)
        t2 = np.einsum("bnm,bm->bn", model.X(x), model.DY(x, u, v))
        assert np.max(np.abs(t1 + t2)) < 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_gradient_system_identity(self, n):
        model = sg.make_gradient_sphere_model(n)
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((100, n))
        pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
        cols = model.X(pts)
        acc = np.zeros_like(pts)
        for i in range(n):
            acc += model.DX(pts, cols[..., i])[..., i]
        covariant = model.geometry.project_tangent(pts, acc)
        assert np.max(np.abs(covariant)) < 1e-10

    def test_declared_derivatives_match_fd(self, sphere, ou):
        for model in (sphere, ou):
            pts = sample_points(model, 16, seed=2)
            dirs = sample_directions(model, pts, seed=3)
            for i in range(model.m):
                col = lambda x, _i=i: model.X(x)[..., _i]
                dcol = lambda x, v, _i=i: model.DX(x, v)[..., _i]
                err, ok = check_directional_derivative(col, dcol, pts, dirs)
                assert ok, f"DX column {i} off by {err}"
            err, ok = check_directional_derivative(model.Z, model.DZ, pts, dirs)
            assert ok, f"DZ off by {err}"


class TestNoiseCoefficients:
    """Each built-in declares X, DX, D2X and Y once; the matrices must match the applications."""

    MODELS = {"bm": lambda: sg.make_bm_model(2), "bm_sigma2": lambda: sg.make_bm_model(2, 2.0),
              "ou": lambda: sg.make_ou_model(1.0), "circle": lambda: sg.make_gradient_sphere_model(2),
              "sphere3": lambda: sg.make_gradient_sphere_model(3),
              "so3": lambda: sg.make_so3_model(1.0), "so3_scaled": lambda: sg.make_so3_model(0.7)}

    # the orthonormal basis E_a of so(3): E_a w = e_a x w
    SO3_BASIS = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
                          [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                          [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])

    @pytest.mark.parametrize("name", list(MODELS))
    def test_matrices_match_applications(self, name):
        model = self.MODELS[name]()
        x = sample_points(model, 32, seed=3)
        u = sample_directions(model, x, seed=5)
        v = sample_directions(model, x, seed=6)
        w = sample_directions(model, x, seed=7)
        e = np.random.default_rng(8).standard_normal((32, model.m))
        mat = lambda M, a: np.einsum("bij,bj->bi", M, a)
        pairs = [(mat(model.X(x), e), model.apply_X(x, e)),
                 (mat(model.DX(x, v), e), model.apply_DX(x, v, e)),
                 (mat(model.D2X(x, u, v), e), model.apply_D2X(x, u, v, e)),
                 (mat(model.Y(x), w), model.apply_Y(x, w))]
        for matrix, applied in pairs:
            assert np.max(np.abs(matrix - applied)) <= 1e-13

    def test_applications_are_the_only_declaration(self):
        names = {f.name for f in fields(DiffusionModel)}
        assert names.isdisjoint({"X", "DX", "D2X", "Y"})
        assert {"apply_X", "apply_DX", "apply_D2X", "apply_Y"} <= names

    @pytest.mark.parametrize("case", ["sine_noise", "constant_2x3"])
    def test_flat_matrices_equal_the_declared_ones(self, case):
        # make_flat_model stores matrices as applications; the methods rebuild them exactly
        if case == "sine_noise":
            coeffs = sine_noise_coefficients()
            model = make_flat_model(1, 1, **coeffs)
        else:
            C = np.array([[1.0, -0.5, 2.0], [0.25, 3.0, -1.0]])
            X = lambda x: np.broadcast_to(C, x.shape[:-1] + (2, 3))
            model = make_flat_model(2, 3, X=X)
            coeffs = {"X": X, "Y": lambda x: _gram_right_inverse(X(x))}  # Y's default
        x = sample_points(model, 16, seed=3)
        u = sample_directions(model, x, seed=5)
        v = sample_directions(model, x, seed=6)
        args = {"X": (x,), "DX": (x, v), "D2X": (x, u, v), "Y": (x,)}
        for name, c in coeffs.items():
            if name in args:
                assert np.array_equal(getattr(model, name)(*args[name]), c(*args[name])), name

    @pytest.mark.parametrize("name", ["circle", "sphere3"])
    def test_sphere_X_is_tangent_projection(self, name):
        model = self.MODELS[name]()
        x = sample_points(model, 32, seed=3)
        assert np.max(np.abs(model.X(x) - (np.eye(model.n) - x[:, :, None] * x[:, None, :]))) \
            <= 1e-15

    @pytest.mark.parametrize("name", ["so3", "so3_scaled"])
    def test_so3_X_columns_are_left_translates(self, name):
        model = self.MODELS[name]()
        g = sample_points(model, 32, seed=3)
        G = g.reshape(-1, 3, 3)
        for a in range(3):
            expected = model.noise_scale * (G @ self.SO3_BASIS[a]).reshape(-1, 9)
            assert np.max(np.abs(model.X(g)[..., a] - expected)) <= 1e-15

    @pytest.mark.parametrize("sigma", [1.0, 2.0, -0.5])
    def test_bm_X_and_Y_are_scaled_identities(self, sigma):
        model = sg.make_bm_model(3, sigma)
        x = sample_points(model, 8, seed=3)
        assert np.array_equal(model.Y(x), np.broadcast_to(np.eye(3) / sigma, (8, 3, 3)))
        assert np.array_equal(model.X(x), np.broadcast_to(sigma * np.eye(3), (8, 3, 3)))

    @pytest.mark.parametrize("sigma", [0, 0.0, -0.0, np.nan, np.inf, -np.inf])
    def test_bm_rejects_degenerate_sigma(self, sigma):
        # sigma = 0 used to give Y = I/0 and a NaN gradient; nan/inf raised AllPathsBlewUp
        with pytest.raises(Degenerate, match="sigma"):
            sg.make_bm_model(1, sigma)

    def test_bm_negative_sigma_is_valid(self):
        # dx = -dB is Brownian motion too: d/dx E sin(x + sigma B_1) at 0 is e^(-1/2)
        r = sg.bel_gradient(sg.make_bm_model(1, -1.0), lambda x: np.sin(x[..., 0]),
                            sg.TimeGrid(1.0, 10), [0.0], [1.0], n_paths=8192, seed=2)
        assert abs(r.mean - np.exp(-0.5)) < 3 * r.std_error


class TestSphereModels:
    def test_circle_projection_at_east_point(self, circle):
        Xm = circle.X(np.array([[1.0, 0.0]]))[0]
        assert np.allclose(Xm @ np.array([1.0, 0.0]), [0.0, 0.0], atol=1e-15)
        assert np.allclose(Xm @ np.array([0.0, 1.0]), [0.0, 1.0], atol=1e-15)

    def test_sphere_ricci_unit_tangent(self, sphere):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            v = rng.standard_normal(3)
            v -= np.dot(v, x) * x
            ric = np.dot(sphere.geometry.ricci_op(x[None], v[None])[0], v)
            assert abs(ric - np.dot(v, v)) < 1e-12

    def test_too_small_dimension(self):
        with pytest.raises(DimensionMismatch):
            sg.make_gradient_sphere_model(1)

    def test_geodesic_stays_on_sphere(self, sphere):
        x = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        for s in (0.1, 0.5, 2.0):
            p = sphere.geometry.geodesic(x, v, s)
            assert abs(np.linalg.norm(p) - 1) < 1e-14
            assert np.allclose(p, [np.cos(s), np.sin(s), 0.0])


class TestSO3Model:
    def test_left_invariance(self, so3):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = rotation_exp(rng.standard_normal(3))
            h = rotation_exp(rng.standard_normal(3))
            Xh = so3.X(h.reshape(1, 9))[0]        # (9, 3)
            Xgh = so3.X((g @ h).reshape(1, 9))[0]
            left = np.stack([(g @ Xh[:, i].reshape(3, 3)).reshape(-1)
                             for i in range(3)], axis=-1)
            assert np.allclose(Xgh, left, atol=1e-12)

    def test_ad_preserves_algebra_norm(self, so3):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = rotation_exp(rng.standard_normal(3)).reshape(-1)
            xi = rng.standard_normal(3)
            ad = so3.ad_inverse(g[None], xi)[0]
            assert abs(np.linalg.norm(ad) - np.linalg.norm(xi)) < 1e-10

    def test_exp_is_rotation(self):
        w = np.array([0.3, -1.2, 0.4])
        R = rotation_exp(w)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-14)
        assert abs(np.linalg.det(R) - 1) < 1e-12

    @staticmethod
    def _exp_grid():
        # theta from 1e-12 to 10 on random axes, with 0 and both sides of the 1e-8 switch
        rng = np.random.default_rng(11)
        thetas = np.concatenate([[0.0, np.nextafter(1e-8, 0.0), 1e-8, np.nextafter(1e-8, 1.0),
                                  0.999e-8, 1.001e-8], np.geomspace(1e-12, 10.0, 400)])
        axes = rng.standard_normal((thetas.size, 3))
        return thetas[:, None] * axes / np.linalg.norm(axes, axis=-1, keepdims=True)

    def test_exp_matches_scipy(self):
        from scipy.spatial.transform import Rotation
        w = self._exp_grid()
        assert np.max(np.abs(rotation_exp(w) - Rotation.from_rotvec(w).as_matrix())) <= 1e-14

    def test_exp_orthogonal_unimodular(self):
        R = rotation_exp(self._exp_grid())
        assert np.max(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3))) <= 1e-14
        assert np.max(np.abs(np.linalg.det(R) - 1.0)) <= 1e-14
        assert np.array_equal(rotation_exp(np.zeros(3)), np.eye(3))
        assert np.array_equal(rotation_exp(np.zeros((4, 3))), np.tile(np.eye(3), (4, 1, 1)))

    def test_exp_matches_matrix_form(self):
        # I + a S + b S @ S with a batched matmul; its diagonal may be fused-rounded,
        # so the entries (all in [-1, 1]) agree to 2 ulp of 1, the off-diagonals exactly
        w = self._exp_grid()
        theta = np.linalg.norm(w, axis=-1)
        small = theta < 1e-8
        th = np.where(small, 1.0, theta)
        a = np.where(small, 1.0 - theta ** 2 / 6.0, np.sin(th) / th)
        b = np.where(small, 0.5 - theta ** 2 / 24.0, (1.0 - np.cos(th)) / th ** 2)
        S = skew_from_axis(w)
        ref = np.eye(3) + a[:, None, None] * S + b[:, None, None] * (S @ S)
        R = rotation_exp(w)
        assert np.max(np.abs(R - ref)) <= 2 * np.finfo(float).eps
        off = ~np.eye(3, dtype=bool)
        assert np.array_equal(R[:, off], ref[:, off])

    def test_exp_storage_is_entry_major(self):
        R = rotation_exp(self._exp_grid())
        assert R.shape == (len(self._exp_grid()), 3, 3)
        assert all(R[:, i, j].flags.c_contiguous for i in range(3) for j in range(3))

    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_step_is_the_matrix_product(self, scale):
        # the written-out g exp(s dW) is G @ rotation_exp(s dW) to 4 ulps of the
        # entries' term magnitudes, and its bits do not depend on g's layout
        model = sg.make_so3_model(scale)
        rng = np.random.default_rng(5)
        g = rotation_exp(rng.standard_normal((2000, 3))).reshape(2000, 9)
        dW = 0.3 * rng.standard_normal((2000, 3))
        R = rotation_exp(scale * dW)
        G = np.ascontiguousarray(g).reshape(-1, 3, 3)
        ref = (G @ R).reshape(-1, 9)
        terms = (np.abs(G) @ np.abs(R)).reshape(-1, 9)
        step = model.geometry.step(g, dW, 0.01)
        assert g.flags.f_contiguous and step.flags.f_contiguous
        assert np.all(np.abs(step - ref) <= 4 * np.spacing(terms))
        assert np.array_equal(model.geometry.step(np.ascontiguousarray(g), dW, 0.01), step)

    def test_skew_axis_round_trip(self):
        w = np.array([0.5, -0.2, 1.1])
        assert np.allclose(axis_from_skew(skew_from_axis(w)), w)

    def test_group_metric_normalizes_frame(self, so3):
        g = np.eye(3).reshape(1, 9)
        Xm = so3.X(g)
        for i in range(3):
            col = Xm[..., i]
            assert abs(so3.metric_dot(g, col, col)[0] - 1.0) < 1e-12

    def test_retract_polar(self, so3):
        g = (np.eye(3) + 0.05 * np.arange(9).reshape(3, 3) / 10).reshape(1, 9)
        r = so3.geometry.retract(g).reshape(3, 3)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)

    def test_invalid_scale(self):
        # inf used to pass `not scale > 0`, so every estimator raised AllPathsBlewUp
        for scale in (0, 0.0, -1.0, np.nan, np.inf):
            with pytest.raises(Degenerate, match="noise_scale"):
                sg.make_so3_model(scale)


class TestSupport:
    def test_flat_model_validates_shapes(self):
        with pytest.raises(DimensionMismatch):
            make_flat_model(2, 1, X=lambda x: np.ones(x.shape[:-1] + (1, 1)),
                            Z=lambda x: 0 * x)

    def test_fd_fallback_close_and_flagged(self):
        exact = make_sine_noise_model()
        bare = make_flat_model(1, 1, X=exact.X, Z=exact.Z)
        fd = with_fd_derivatives(bare)
        assert fd.fd_derivatives
        x = np.array([[0.4]])
        v = np.array([[1.0]])
        assert np.allclose(fd.DX(x, v), exact.DX(x, v), atol=1e-7)
        assert np.allclose(fd.DZ(x, v), exact.DZ(x, v), atol=1e-7)

    def test_sampling_deterministic(self, sphere, bm1):
        for model in (sphere, bm1):
            a = sample_points(model, 8, seed=4)
            b = sample_points(model, 8, seed=4)
            assert np.array_equal(a, b)

    def test_observable_wrapper(self):
        obs = sg.as_observable(lambda x: x[..., 0])
        assert obs(np.array([[2.0]]))[0] == 2.0

    def test_registry_observable_gradients_match_fd(self):
        # declared df callbacks agree with central differences of f
        rng = np.random.default_rng(9)
        for sid in ("bm1d", "ou1d", "circle", "sphere3", "so3"):
            sc = sg.get_scenario(sid)
            model = sc.make()
            pts = sample_points(model, 8, seed=1)
            dirs = sample_directions(model, pts, seed=2)
            for obs in sc.observables.values():
                if obs.df is None:
                    continue
                dfn = lambda x, v, _o=obs: np.einsum("bn,bn->b", _o.df(x), v)
                err, ok = check_directional_derivative(obs.f, dfn, pts, dirs)
                assert ok, f"{sid}/{obs.name}: df off by {err}"
