import ast
import glob
import itertools
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semigrad as sg
from semigrad import TimeGrid, cli, diagnostics, estimators, generate_noise, paths
from semigrad.engine import default_block_size
from semigrad.errors import DimensionMismatch, InvalidConfig, MissingDerivative, MissingGeometry
from semigrad.models import make_flat_model, skew_from_axis
from semigrad.paths import _stratonovich_ito_drift, integrate_block, noise_block, simulate
from semigrad.variation import hessian_flow

from conftest import (make_cubic_blowup_model, make_sine_noise_model, one_path,
                      second_variation, transport_flow)


_CONFIG = {"scenario": "bm1d", "estimator": "bel_gradient", "observable": "sin"}


class TestTimeGrid:
    def test_grid_points_exact(self):
        grid = TimeGrid(1.0, 7)
        times = grid.times()
        assert times.shape == (8,)
        # t_k must be k * dt exactly, not a running sum
        for k in range(8):
            assert times[k] == k * grid.dt

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            TimeGrid(1.0, 0)
        with pytest.raises(InvalidConfig):
            TimeGrid(0.0, 10)
        with pytest.raises(InvalidConfig):
            TimeGrid(-1.0, 10)
        # a non-finite horizon would make dt infinite and every path "blow up"
        for t_end in (np.inf, np.nan):
            with pytest.raises(InvalidConfig, match="t_end"):
                TimeGrid(t_end, 10)
        for n_steps in (2.5, 10.0, "10"):
            with pytest.raises(InvalidConfig, match="n_steps"):
                TimeGrid(1.0, n_steps)
        assert TimeGrid(1.0, np.int64(10)).dt == 0.1

    @pytest.mark.parametrize("call", [
        lambda: TimeGrid(1.0, True),
        lambda: TimeGrid(True, 10),
        lambda: TimeGrid(np.bool_(True), 10),
        lambda: sg.semigroup_value(sg.make_bm_model(1), lambda x: x[..., 0],
                                   TimeGrid(1.0, 4), [0.0], n_paths=True),
        lambda: cli.config_from_dict(dict(_CONFIG, n_paths=True)),
        lambda: cli.config_from_dict(dict(_CONFIG, n_steps=True)),
        lambda: cli.config_from_dict(dict(_CONFIG, t=True)),
        lambda: cli.config_from_dict(dict(_CONFIG, n_paths=np.bool_(True))),
    ], ids=["grid_n_steps", "grid_t_end", "grid_t_end_np", "estimator_n_paths",
            "config_n_paths", "config_n_steps", "config_t", "config_n_paths_np"])
    def test_booleans_are_not_numbers(self, call):
        # True would otherwise count as 1 path, 1 step or t = 1
        assert cli.config_from_dict(dict(_CONFIG, n_paths=1, n_steps=1, t=1)).n_paths == 1
        with pytest.raises(InvalidConfig):
            call()


class TestNoise:
    def test_determinism(self):
        grid = TimeGrid(1.0, 1000)
        a = generate_noise(grid, 7, 0, 1)
        b = generate_noise(grid, 7, 0, 1)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        grid = TimeGrid(1.0, 100)
        a = generate_noise(grid, 7, 0, 2)
        b = generate_noise(grid, 7, 1, 2)
        assert not np.allclose(a, b)

    def test_block_matches_single(self):
        grid = TimeGrid(1.0, 50)
        block = noise_block(grid, 13, 5, 9, 3)
        for i, p in enumerate(range(5, 9)):
            single = generate_noise(grid, 13, p, 3)
            assert np.array_equal(block[i], single)

    def test_clt_moments(self):
        # 10^6 increments: mean within 4 sqrt(dt / 10^6), variance within 1%
        grid = TimeGrid(1.0, 1000)
        incs = noise_block(grid, 21, 0, 1000, 1)[:, :, 0]
        dt = grid.dt
        assert abs(incs.mean()) < 4 * np.sqrt(dt / incs.size)
        assert abs(incs.var() - dt) < 0.01 * dt

    def test_invalid_dimension(self):
        with pytest.raises(DimensionMismatch):
            generate_noise(TimeGrid(1.0, 10), 0, 0, 0)

    @pytest.mark.parametrize("path_index", [-1, 2 ** 64, 1.5, 4.0, "1", None, True])
    def test_invalid_path_index(self, path_index):
        with pytest.raises(InvalidConfig, match="path_index"):
            generate_noise(TimeGrid(1.0, 10), 0, path_index, 1)

    @pytest.mark.parametrize("lo,hi,m,stream,error", [
        (0, 5, 0, 0, DimensionMismatch),
        (5, 3, 1, 0, InvalidConfig),
        (-3, 5, 1, 0, InvalidConfig),
        (2 ** 64 - 1, 2 ** 64 + 1, 1, 0, InvalidConfig),
        (0, 5, 1, -1, InvalidConfig),
        (0, 5, 1, 2 ** 64, InvalidConfig),
        (0, 5, 1, 1.5, InvalidConfig),
        (0, 4, 1.5, 0, InvalidConfig),
        (0, 4, 4.0, 0, InvalidConfig),
        (1.5, 4, 1, 0, InvalidConfig),
        (0, 4.0, 1, 0, InvalidConfig),
        (True, 4, 1, 0, InvalidConfig),
        (0, 4, True, 0, InvalidConfig),
        (0, 5, 1, True, InvalidConfig),
        (0, 0, 1, -1, InvalidConfig),
        (256, 256, 1, 2 ** 64, InvalidConfig),
    ])
    def test_noise_block_rejects_bad_inputs(self, lo, hi, m, stream, error):
        with pytest.raises(error):
            noise_block(TimeGrid(1.0, 10), 0, lo, hi, m, stream)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, 1.0, np.float64(2.0), "1", None,
                                      True, False])
    def test_noise_block_rejects_bad_seed(self, seed):
        # the SFC64 key holds the seed itself: nothing may alias onto another seed
        with pytest.raises(InvalidConfig, match="seed"):
            noise_block(TimeGrid(1.0, 10), seed, 0, 4, 1)

    @pytest.mark.parametrize("lo", [0, 256])
    def test_empty_stream_checks_its_seed(self, lo):
        # a tile-aligned empty range keys no generator, yet its seed is checked
        with pytest.raises(InvalidConfig, match="seed"):
            noise_block(TimeGrid(1.0, 4), -1, lo, lo, 1)

    def test_seed_integer_types_agree(self):
        grid = TimeGrid(1.0, 10)
        top = noise_block(grid, 2 ** 64 - 1, 0, 4, 1)
        assert np.array_equal(noise_block(grid, np.uint64(2 ** 64 - 1), 0, 4, 1), top)
        assert np.array_equal(noise_block(grid, np.int64(7), 0, 4, 1),
                              noise_block(grid, 7, 0, 4, 1))
        assert not np.array_equal(noise_block(grid, 0, 0, 4, 1), top)


class TestNoiseContract:
    """SFC64 keyed by (seed, stream, 256-path tile): rows never depend on the block bounds."""

    GRID = TimeGrid(1.0, 3)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 1000), m=st.integers(1, 3),
           stream=st.one_of(st.just(0), st.integers(1, 2 ** 32)),
           cuts=st.lists(st.one_of(st.integers(0, 999), st.sampled_from([256, 512, 768])),
                         max_size=6),
           data=st.data())
    def test_any_partition_matches_one_block(self, n, m, stream, cuts, data):
        bounds = sorted({0, n} | {c for c in cuts if c < n})
        whole = noise_block(self.GRID, 5, 0, n, m, stream)
        pieces = [noise_block(self.GRID, 5, lo, hi, m, stream)
                  for lo, hi in zip(bounds, bounds[1:])]
        assert np.array_equal(np.concatenate(pieces), whole)
        if stream == 0:
            p = data.draw(st.integers(0, n - 1))
            assert np.array_equal(generate_noise(self.GRID, 5, p, m), whole[p])

    def test_key_is_injective(self):
        # SeedSequence joins 32-bit words and pads with zeros, so the raw triple
        # collided: (s, _AUX_STREAM, 0) keyed tile 1 of (s, 0), and seed 2**32's
        # stream 0 was seed 0's stream 1
        seeds = [0, 1, 2 ** 32, 2 ** 64 - 1]
        streams = [0, 1, paths._AUX_STREAM, paths._SAMPLE_STREAM, paths._SAMPLE_STREAM + 1]
        keys = list(itertools.product(seeds, streams, [0, 1, 2 ** 32]))
        first = {int(paths._keyed(*key).bit_generator.random_raw()) for key in keys}
        assert len(first) == len(keys)
        grid = TimeGrid(1.0, 4)
        assert not np.array_equal(noise_block(grid, 2 ** 32, 0, 2, 1),
                                  noise_block(grid, 0, 0, 2, 1, stream=1))

    def test_tiles_and_streams_differ(self):
        block = noise_block(self.GRID, 5, 0, 512, 2)
        assert not np.array_equal(block[0], block[256])  # same row of two tiles
        assert not np.array_equal(block[255], block[256])
        other = noise_block(self.GRID, 5, 0, 512, 2, stream=1)
        assert not np.any(np.all(other == block, axis=(1, 2)))

    @pytest.mark.parametrize("lo,hi", [(0, 512), (100, 400)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("stream", [0, 7])
    def test_step_major_layout(self, lo, hi, m, stream):
        # every step's increments are contiguous; the values are the keyed SFC64
        # tile draws, step-major (step k is draws [k 256 m, (k+1) 256 m)), scaled by sqrt(dt)
        block = noise_block(self.GRID, 5, lo, hi, m, stream)
        assert all(block[:, k].flags.f_contiguous for k in range(self.GRID.n_steps))
        tiles = range(lo // 256, -(-hi // 256))
        drawn = np.concatenate([np.random.Generator(np.random.SFC64(
            np.random.SeedSequence([5, stream, tile]))).standard_normal(
            (self.GRID.n_steps, 256, m)) for tile in tiles], axis=1) * np.sqrt(self.GRID.dt)
        start = lo - tiles[0] * 256
        assert np.array_equal(block, drawn[:, start:start + hi - lo].transpose(1, 0, 2))

    @pytest.mark.parametrize("m", [2, 3])
    def test_stream_steps_are_component_major(self, m):
        # each (B, m) step is the transpose of a contiguous (m, B) buffer slice
        steps = [(dW.shape, dW.flags.f_contiguous, dW.flags.c_contiguous)
                 for dW in paths.NoiseStream(self.GRID, 5, 100, 400, m)]
        assert steps == [((300, m), True, False)] * self.GRID.n_steps

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 700), m=st.integers(1, 3),
           stream=st.one_of(st.just(0), st.integers(1, 2 ** 32)),
           cuts=st.lists(st.one_of(st.integers(0, 699), st.sampled_from([256, 512])),
                         max_size=4),
           chunk=st.sampled_from([1, 3, 10]))
    def test_stream_matches_noise_block(self, n, m, stream, cuts, chunk):
        # read step by step in chunks of 1, 3 or all 10 steps, every block of any
        # partition streams noise_block's rows
        grid = TimeGrid(1.0, 10)
        bounds = sorted({0, n} | {c for c in cuts if c < n})
        whole = noise_block(grid, 5, 0, n, m, stream)
        for lo, hi in zip(bounds, bounds[1:]):
            with mock.patch.object(paths, "_CHUNK_BYTES", chunk * (hi - lo) * m * 8):
                noise = paths.NoiseStream(grid, 5, lo, hi, m, stream)
            assert noise.shape == (hi - lo, 10, m) and len(noise._buf) == chunk
            for k, dW in enumerate(noise):
                assert np.array_equal(dW, whole[lo:hi, k])
            assert k == 9

    @pytest.mark.parametrize("sid", ["bm1d", "sphere3"])
    def test_half_grids_on_one_iterator_match_the_full_grid(self, sid):
        # two simulate calls on t/2 grids that share one iter(NoiseStream) step the
        # paths, fields and weights bitwise as one call on the whole grid; the
        # 3-step chunks put the split inside a chunk
        sc = sg.get_scenario(sid)
        model = sc.make()
        grid, half, B = TimeGrid(1.0, 10), TimeGrid(0.5, 5), 64
        x0s = np.broadcast_to(sc.x0, (B, model.n))
        with mock.patch.object(paths, "_CHUNK_BYTES", 3 * B * model.m * 8):
            whole = paths.NoiseStream(grid, 3, 0, B, model.m)
            split = paths.NoiseStream(grid, 3, 0, B, model.m)
        w = paths.weight(model, 0)

        def gated(first):
            # the full call's weight over one half, 0.0 on the other
            return lambda k, *args: w(k, *args) if (k < 5) == first else np.zeros(B)

        x, alive, (v,), totals = simulate(model, grid, x0s, whole, vs=(sc.v0,),
                                          sums=[gated(True), gated(False)])
        steps = iter(split)
        x1, alive1, (v1,), (t1,) = simulate(model, half, x0s, steps, vs=(sc.v0,), sums=[w])
        x2, alive2, (v2,), (t2,) = simulate(model, half, x1, steps, alive1, vs=(v1,), sums=[w])
        assert next(steps, None) is None
        assert np.array_equal(x2, x) and np.array_equal(alive2, alive)
        assert np.array_equal(v2, v)
        assert np.array_equal(t1, totals[0]) and np.array_equal(t2, totals[1])

    def test_simulate_rejects_short_or_misshapen_noise(self):
        model = sg.get_scenario("sphere3").make()
        grid, B = TimeGrid(1.0, 4), 8
        x0s = np.tile([1.0, 0.0, 0.0], (B, 1))
        steps = noise_block(grid, 5, 0, B + 1, model.m).transpose(1, 0, 2)
        with pytest.raises(DimensionMismatch, match="ran out"):
            simulate(model, grid, x0s, iter(steps[:-1, :B]))
        with pytest.raises(DimensionMismatch, match="step 0"):
            simulate(model, grid, x0s, steps)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True])
    @pytest.mark.parametrize("call", ["semigroup_value", "exact_form_residuals",
                                      "constraint_violation"])
    def test_streaming_callers_check_the_seed(self, seed, call):
        # a stream runs noise_block's checks, so no seed reaches the generator unchecked
        sc = sg.get_scenario("sphere3")
        model, f, grid = sc.make(), sc.observables["sin"], TimeGrid(1.0, 4)
        calls = {
            "semigroup_value": lambda: estimators.semigroup_value(
                model, f, grid, sc.x0, n_paths=8, seed=seed),
            "exact_form_residuals": lambda: diagnostics.exact_form_residuals(
                model, f, lambda x: x[..., 2], grid, sc.x0, n_paths=8, seed=seed),
            "constraint_violation": lambda: diagnostics.constraint_violation(
                model, grid, sc.x0, n_paths=8, seed=seed),
        }
        with pytest.raises(InvalidConfig, match="seed"):
            calls[call]()

    @pytest.mark.usefixtures("one_worker")
    def test_stream_holds_no_block_of_noise(self):
        # 4096 paths x 1000 steps of noise are 32.8 MB; the stream keeps a few MB
        sc = sg.get_scenario("bm1d")
        tracemalloc.start()
        try:
            estimators.bel_gradient(sc.make(), sc.observables["sin"], TimeGrid(1.0, 1000),
                                    [0.0], [1.0], n_paths=4096, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 1000 * 8 / 4

    @pytest.mark.parametrize("call", ["bel_hessian_weights", "bel_hessian_nested",
                                      "finite_difference_oracle"])
    @pytest.mark.usefixtures("one_worker")
    def test_two_pass_callers_hold_no_block_of_noise(self, call):
        # bel_hessian reads its noise across two simulate calls and the FD oracle
        # from two starts; both stream it, so neither holds the 32.8 MB block
        sc = sg.get_scenario("bm1d")
        f, grid = sc.observables["sin"], TimeGrid(1.0, 1000)
        run = {
            "bel_hessian_weights": lambda: estimators.bel_hessian(
                sc.make(), f, grid, [0.3], [1.0], [1.0], n_paths=4096, seed=1),
            # the sine-noise model runs the nested variant's inner paths
            "bel_hessian_nested": lambda: estimators.bel_hessian(
                make_sine_noise_model(), f, grid, [0.3], [1.0], [1.0], variant="nested",
                n_inner=1, n_paths=4096, seed=1),
            "finite_difference_oracle": lambda: diagnostics.finite_difference_oracle(
                sc.make(), f, grid, [0.3], [1.0], n_paths=4096, seed=1),
        }[call]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 1000 * 8 / 4

    def test_default_blocks_hold_whole_tiles(self):
        # estimator blocks start on a tile boundary, so they never draw rows they discard
        for m in range(1, 10):
            for n_steps in range(1, 10 ** 5 + 1):
                assert default_block_size(n_steps, m) % 256 == 0


class TestIntegration:
    def test_bm_states_are_partial_sums(self, bm1):
        grid = TimeGrid(1.0, 200)
        noise = generate_noise(grid, 3, 0, 1)
        states, alive, *_ = one_path(bm1, [0.0], grid, noise)
        expected = np.concatenate([[0.0], np.cumsum(noise[:, 0])])
        assert np.array_equal(states[0, :, 0], expected)
        assert alive[0]

    def test_traj_starts_at_x0(self, ou):
        grid = TimeGrid(1.0, 50)
        states, *_ = one_path(ou, [1.3], grid, generate_noise(grid, 0, 0, 1))
        assert states[0, 0, 0] == 1.3

    def test_ou_zero_noise_matches_ode(self, ou):
        grid = TimeGrid(1.0, 1000)
        zero = np.zeros((1000, 1))
        states, *_ = one_path(ou, [1.0], grid, zero)
        times = grid.times()
        assert np.max(np.abs(states[0, :, 0] - np.exp(-times))) < grid.dt

    def test_circle_states_on_manifold(self, circle):
        grid = TimeGrid(1.0, 300)
        states, *_ = one_path(circle, [1.0, 0.0], grid, generate_noise(grid, 5, 2, 2))
        radii = np.linalg.norm(states[0], axis=-1)
        assert np.max(np.abs(radii - 1.0)) < 1e-9

    def test_so3_zero_noise_constant_identity(self, so3):
        grid = TimeGrid(1.0, 50)
        zero = np.zeros((50, 3))
        eye = np.eye(3).reshape(-1)
        states, *_ = one_path(so3, eye, grid, zero)
        assert np.allclose(states[0], eye, atol=1e-15)

    def test_so3_stays_orthogonal(self, so3):
        grid = TimeGrid(1.0, 400)
        states, *_ = one_path(so3, np.eye(3).reshape(-1), grid,
                              generate_noise(grid, 17, 0, 3))
        mats = states[0].reshape(-1, 3, 3)
        errs = np.linalg.norm(np.swapaxes(mats, -1, -2) @ mats - np.eye(3),
                              axis=(-2, -1))
        assert np.max(errs) < 1e-9

    def test_so3_block_stays_on_the_group(self, so3):
        # 1000 written-out group steps keep every path of a block on SO(3)
        grid = TimeGrid(1.0, 1000)
        worst = []
        simulate(so3, grid, np.broadcast_to(np.eye(3).reshape(-1), (256, 9)),
                 paths.NoiseStream(grid, 17, 0, 256, 3),
                 hook=lambda k, x, vs, alive: worst.append(
                     np.max(np.abs(so3.geometry.constraint(x)))))
        assert len(worst) == grid.n_steps + 1 and max(worst) < 1e-12

    def test_noise_dimension_checked(self, bm1):
        grid = TimeGrid(1.0, 10)
        bad = generate_noise(grid, 0, 0, 2)
        with pytest.raises(DimensionMismatch):
            one_path(bm1, [0.0], grid, bad)

    def test_longer_noise_rejected(self, bm1):
        # another grid's noise is refused, not cut to this grid's steps
        noise = generate_noise(TimeGrid(1.0, 20), 0, 0, 1)
        with pytest.raises(DimensionMismatch, match="more than"):
            one_path(bm1, [0.0], TimeGrid(1.0, 10), noise)

    @pytest.mark.parametrize("sid", sg.scenario_ids())
    @pytest.mark.usefixtures("one_worker")
    def test_per_path_equals_estimator_path(self, sid):
        # integrate_block and the estimators step through the same kernel
        sc = sg.get_scenario(sid)
        model = sc.make()
        grid = TimeGrid(1.0, 200)
        states, *_ = one_path(model, sc.x0, grid, generate_noise(grid, 7, 0, model.m))
        for i in range(model.n):
            r = sg.semigroup_value(model, lambda x, i=i: x[..., i], grid, sc.x0,
                                   n_paths=1, seed=7)
            assert r.mean == states[0, -1, i]

    def test_sums_stop_at_blow_up_step(self):
        # a running total adds each live step's increment in order and nothing
        # from the blow-up step on, where integrate_block reports that step
        model = make_cubic_blowup_model()
        model.blow_up_radius = 3.0
        grid = TimeGrid(1.0, 100)
        dWs = noise_block(grid, 4, 0, 64, 1)
        _, _, blow_step, _, _ = integrate_block(model, np.full((64, 1), 1.0), grid,
                                                dWs.transpose(1, 0, 2))
        _, alive, _, (total,) = simulate(model, grid, np.full((64, 1), 1.0),
                                         dWs.transpose(1, 0, 2),
                                         sums=[lambda k, x, x_dB, dW, vs: dW[:, 0]])
        assert 0 < np.sum(~alive) < 64
        assert np.array_equal(alive, blow_step < 0)
        for b in range(64):
            expected = 0.0
            for k in range(grid.n_steps if blow_step[b] < 0 else blow_step[b]):
                expected += dWs[b, k, 0]
            assert total[b] == expected

    def test_blow_up_flagged_not_raised(self):
        model = make_cubic_blowup_model()
        model.blow_up_radius = 1e3
        grid = TimeGrid(1.0, 400)
        states, alive, blow_step, _, _ = one_path(model, [3.0], grid,
                                                  generate_noise(grid, 1, 0, 1))
        assert not alive[0]
        assert blow_step[0] >= 0
        assert np.isfinite(states).all()


class TestDriftConversion:
    @pytest.mark.usefixtures("one_worker")
    def test_no_drift_rejected_everywhere(self):
        # DX alone does not declare a drift: per-path and estimator calls agree
        model = make_flat_model(1, 1, X=lambda x: np.ones(x.shape + (1,)),
                                DX=lambda x, v: np.zeros(x.shape + (1,)))
        grid = TimeGrid(1.0, 10)
        with pytest.raises(MissingDerivative):
            one_path(model, [0.0], grid, generate_noise(grid, 0, 0, 1))
        with pytest.raises(MissingDerivative):
            sg.semigroup_value(model, lambda x: x[..., 0], grid, [0.0],
                               n_paths=4, seed=0)

    def test_constant_X_returns_A(self, bm1):
        # no A declared: correction of constant X vanishes
        assert np.allclose(_stratonovich_ito_drift(bm1, np.array([[0.7]])), 0.0)

    def test_circle_drift(self, circle):
        z = _stratonovich_ito_drift(circle, np.array([[1.0, 0.0]]))[0]
        assert np.allclose(z, [-0.5, 0.0], atol=1e-10)

    def test_sphere_drift_formula(self, sphere):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            z = _stratonovich_ito_drift(sphere, x[None])[0]
            assert np.allclose(z, -x, atol=1e-10)  # -(n-1)/2 x with n = 3

    def test_sphere_north_pole(self, sphere):
        z = _stratonovich_ito_drift(sphere, np.array([[0.0, 0.0, 1.0]]))[0]
        assert np.allclose(z, [0.0, 0.0, -1.0], atol=1e-12)


class TestStatisticalSanity:
    def test_weak_error_bm_variance(self, bm1):
        # E x_t^2 = t for dx = dB
        grid = TimeGrid(1.0, 50)
        res = sg.semigroup_value(bm1, lambda x: x[..., 0] ** 2, grid, [0.0],
                                 n_paths=100_000, seed=2)
        assert abs(res.mean - 1.0) < 3 * res.std_error

    def test_strong_order_one_for_additive_noise(self, ou):
        # Euler on additive noise is strong order 1: halving dt halves the error
        from semigrad.paths import integrate_block

        fine = TimeGrid(1.0, 800)
        n = 2000
        w = noise_block(fine, 33, 0, n, 1)
        x0s = np.ones((n, 1))
        ref, *_ = integrate_block(ou, x0s, fine, w.transpose(1, 0, 2))
        errs = {}
        for level, group in ((0, 8), (1, 4)):
            steps = 800 // group
            grid = TimeGrid(1.0, steps)
            coarse = w.reshape(n, steps, group, 1).sum(axis=2)
            states, *_ = integrate_block(ou, x0s, grid, coarse.transpose(1, 0, 2))
            errs[level] = np.sqrt(np.mean((states[:, -1, 0] - ref[:, -1, 0]) ** 2))
        ratio = errs[0] / errs[1]
        assert 1.5 < ratio < 2.8

    def test_bit_identical_trajectories(self, sphere):
        grid = TimeGrid(1.0, 100)
        noise = generate_noise(grid, 8, 4, 3)
        a, *_ = one_path(sphere, [1.0, 0.0, 0.0], grid, noise)
        b, *_ = one_path(sphere, [1.0, 0.0, 0.0], grid, noise)
        assert np.array_equal(a, b)


@pytest.mark.usefixtures("one_worker")
class TestGroupStep:
    """A group step makes X(x) dW only when there are sums."""

    GRID = TimeGrid(0.5, 20)
    RUN = {"n_paths": 512, "seed": 1}

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        original = paths.apply_coeff

        def counted(*args):
            count[0] += 1
            return original(*args)

        monkeypatch.setattr(paths, "apply_coeff", counted)
        return count

    @staticmethod
    def _so3():
        sc = sg.get_scenario("so3")
        return sc.make(), sc.observables["trace_e1"], sc.x0, skew_from_axis(sc.v0).reshape(-1)

    def test_no_discarded_x_dW(self, calls):
        model, f, g0, v = self._so3()
        estimators.lie_group_gradient(model, f, self.GRID, [1.0, 0.0, 0.0], **self.RUN)
        estimators.semigroup_value(model, f, self.GRID, g0, **self.RUN)
        diagnostics.finite_difference_oracle(model, f, self.GRID, g0, v, **self.RUN)
        assert calls[0] == 0

    def test_readers_get_x_dW_every_step(self, calls):
        model, f, g0, v = self._so3()
        estimators.bel_gradient(model, f, self.GRID, g0, v, **self.RUN)
        assert calls[0] == self.GRID.n_steps
        diagnostics.martingale_mean_check(model, self.GRID, g0, v, **self.RUN)
        assert calls[0] == 2 * self.GRID.n_steps

    def test_per_path_calls_make_no_x_dW(self, calls):
        # neither integrate_block's recording hook nor a flow reads X(x) dW: the
        # sphere's Euler step makes it once a step, SO(3)'s group step not at all
        grid = TimeGrid(1.0, 50)
        sc = sg.get_scenario("sphere3")
        sphere = sc.make()
        noise = generate_noise(grid, 5, 0, sphere.m)
        one_path(sphere, sc.x0, grid, noise)
        assert calls[0] == grid.n_steps
        for flow in ({"vs": (sc.v0,)},
                     second_variation(sphere, grid, sc.x0, sc.u0, sc.v0),
                     {"vs": (sc.v0,), "flow": hessian_flow(sphere, grid.dt)},
                     {"vs": (sc.v0,), "flow": transport_flow(sphere)}):
            calls[0] = 0
            one_path(sphere, sc.x0, grid, noise, **flow)
            assert calls[0] == grid.n_steps
        model, _, g0, v = self._so3()
        noise = generate_noise(grid, 5, 0, model.m)
        calls[0] = 0
        for flow in ({}, {"vs": (v,)}, {"vs": (v,), "flow": transport_flow(model)}):
            one_path(model, g0, grid, noise, **flow)
        assert calls[0] == 0

    def test_line_integral_reads_x_dW(self):
        # the exact-form line integral is a sum that reads X(x) dW on SO(3)
        model, f, g0, _ = self._so3()
        resid, scales = diagnostics.exact_form_residuals(
            model, f, lambda x: 2.0 * f(x), TimeGrid(1.0, 20), g0,
            n_paths=512, seed=11)
        assert [float.hex(float(np.sum(resid))), float.hex(float(np.sum(scales)))] == [
            "0x1.271fb19e79cbcp+6", "0x1.5db3d742c2655p+10"]

    def test_hessian_correction_reads_x_dW(self):
        # the correction sum gets X(x) dW, so the missing second-variation
        # geometry is what fails, not a None increment
        model, f, g0, v = self._so3()
        with pytest.raises(MissingGeometry):
            estimators.bel_hessian(model, f, self.GRID, g0, v, v, n_paths=16, seed=0)

    def test_skipping_x_dW_changes_nothing(self):
        # a step that makes no X(x) dW moves the paths and the weight bitwise as the default
        model, _, g0, _ = self._so3()
        dWs = noise_block(self.GRID, 3, 0, 300, model.m).transpose(1, 0, 2)
        g0s = np.broadcast_to(g0, (300, model.n))

        def inc(k, x, x_dB, dW, vs):
            return model.ad_inverse(x, [0.3, -1.0, 0.5])[:, 0] * dW[:, 1]

        def group_step(k, x, dW):
            return model.geometry.step(x, dW, self.GRID.dt), None

        x_read, _, _, (total_read,) = simulate(model, self.GRID, g0s, dWs, sums=[inc])
        x_skip, _, _, (total_skip,) = simulate(model, self.GRID, g0s, dWs, sums=[inc],
                                               step=group_step)
        assert np.array_equal(x_read, x_skip) and np.array_equal(total_read, total_skip)


class TestComponentMajor:
    """States and fields stay Fortran-ordered (B, n) through every built-in step."""

    GRID = TimeGrid(0.5, 6)

    @pytest.mark.parametrize("sid", ["circle", "sphere3", "so3"])
    def test_hook_sees_component_major_arrays(self, sid):
        sc = sg.get_scenario(sid)
        model = sc.make()
        v0 = skew_from_axis(sc.v0).reshape(-1) if sid == "so3" else sc.v0
        flows = [{"vs": (v0,)}, {"vs": (v0,), "flow": hessian_flow(model, self.GRID.dt)},
                 {"vs": (v0,), "flow": transport_flow(model)}]
        if sid == "sphere3":
            flows.append(second_variation(model, self.GRID, sc.x0, sc.u0, sc.v0))
        for flow in flows:
            layouts = []

            def hook(k, x, vs, alive):
                layouts.append([a.flags.f_contiguous for a in (x, *vs)])

            simulate(model, self.GRID, np.broadcast_to(sc.x0, (300, model.n)),
                     paths.NoiseStream(self.GRID, 3, 0, 300, model.m),
                     sums=[paths.weight(model, 0)], hook=hook, **flow)
            assert layouts == [[True] * (1 + len(flow["vs"]))] * (self.GRID.n_steps + 1)

    @staticmethod
    def _flat3():
        # X(x) = (1 + sin(x_0) / 10) A as matrices, with the Gram right inverse
        A = np.array([[1.0, 0.3, 0.2], [0.1, 0.9, 0.4], [0.25, 0.15, 1.1]])
        X = lambda x: (1.0 + 0.1 * np.sin(x[..., 0]))[..., None, None] * A
        DX = lambda x, v: (0.1 * np.cos(x[..., 0]) * v[..., 0])[..., None, None] * A
        model = make_flat_model(3, 3, X, Z=lambda x: -0.5 * x, DX=DX, DZ=lambda x, v: -0.5 * v)
        return model, [0.1, 0.2, 0.3], [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("sid", ["circle", "sphere3", "so3", "flat3"])
    def test_one_path_is_its_row_of_a_block(self, sid):
        # a (1, n) block is contiguous both ways; a (B, n) one is not: the
        # states and weights of path p agree bitwise in both
        if sid == "flat3":
            model, x0, v0 = self._flat3()
        else:
            sc = sg.get_scenario(sid)
            model, x0, v0 = sc.make(), sc.x0, sc.v0
            v0 = skew_from_axis(v0).reshape(-1) if sid == "so3" else v0
        steps = noise_block(self.GRID, 9, 0, 20, model.m).transpose(1, 0, 2)
        run = {"vs": (v0,), "sums": [paths.weight(model, 0)]}
        states, _, _, _, (block,) = integrate_block(model, np.tile(x0, (20, 1)), self.GRID,
                                                    steps, **run)
        for p in (0, 7, 19):
            one, _, _, _, (total,) = one_path(model, x0, self.GRID,
                                              generate_noise(self.GRID, 9, p, model.m), **run)
            assert np.array_equal(one[0], states[p]) and total[0] == block[p]


def test_simulate_is_the_only_time_loop():
    # every estimator, flow, form and per-path call steps through paths.simulate
    src = os.path.dirname(sg.__file__)
    loops = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        text = open(path).read()
        spans = [(f.lineno, f.end_lineno) for f in ast.walk(ast.parse(text))
                 if isinstance(f, ast.FunctionDef) and f.name == "simulate"
                 and os.path.basename(path) == "paths.py"]
        loops += [(os.path.basename(path), n, any(a <= n <= b for a, b in spans))
                  for n, line in enumerate(text.splitlines(), 1) if "for k in range(" in line]
    assert [inside for _, _, inside in loops] == [True], loops


def test_stored_trajectory_layer_stays_deleted():
    # integrate_block is the one per-path inspection API: no module defines,
    # imports or exports a stored trajectory or a carrier over one, and
    # variation does not import paths
    src = os.path.dirname(sg.__file__)
    deleted = re.compile(r"Trajectory|VariationPath|_carry|integrate_ito|evolve_\w+"
                         r"|parallel_transport|\w*line_integral_one_form"
                         r"|q_form_line_integral|BlownUpPath")
    found = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        name = os.path.basename(path)
        for node in ast.walk(ast.parse(open(path).read())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                modules = names + [getattr(node, "module", None) or ""]
                if name == "variation.py" and any(m.split(".")[-1] == "paths" for m in modules):
                    found.append((name, node.lineno, "import paths"))
            else:
                continue
            found += [(name, node.lineno, n) for n in names if deleted.fullmatch(n)]
    assert not found, found


def test_noise_is_read_by_iteration_only():
    # simulate iterates its noise, so no module imitates an array with __getitem__
    src = os.path.dirname(sg.__file__)
    getters = [(os.path.basename(path), node.lineno)
               for path in sorted(glob.glob(os.path.join(src, "*.py")))
               for node in ast.walk(ast.parse(open(path).read()))
               if isinstance(node, ast.FunctionDef) and node.name == "__getitem__"]
    assert not getters, getters


def test_curvature_terms_have_one_home():
    # outside models.py, hess_h is read only by variation.covariant_drift_deriv,
    # and ricci_op is the only Ricci callback
    src = os.path.dirname(sg.__file__)
    readers = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        name = os.path.basename(path)
        text = open(path).read()
        assert ".ricci(" not in text, name
        if name == "models.py":
            continue
        spans = [(f.lineno, f.end_lineno) for f in ast.walk(ast.parse(text))
                 if isinstance(f, ast.FunctionDef) and f.name == "covariant_drift_deriv"
                 and name == "variation.py"]
        readers += [(name, n, any(a <= n <= b for a, b in spans))
                    for n, line in enumerate(text.splitlines(), 1) if "hess_h" in line]
    assert readers and all(inside for _, _, inside in readers), readers


def test_wedge_convention_has_one_home():
    # the wedge sign is written once, in forms._wedge, and the unused
    # alternating-tensor algebra stays deleted
    src = os.path.dirname(sg.__file__)
    signs = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        name = os.path.basename(path)
        text = open(path).read()
        assert "AlternatingTensor" not in text, name
        spans = [(f.lineno, f.end_lineno) for f in ast.walk(ast.parse(text))
                 if isinstance(f, ast.FunctionDef) and f.name == "_wedge"
                 and name == "forms.py"]
        signs += [(name, n, any(a <= n <= b for a, b in spans))
                  for n, line in enumerate(text.splitlines(), 1) if "(-1.0) **" in line]
    assert len(signs) == 1 and signs[0][2], signs


def test_noise_coefficients_have_one_home():
    # X, DX, D2X and Y are declared once, as applications: outside models.py
    # no module checks whether an apply_* field is there
    src = os.path.dirname(sg.__file__)
    checks = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        if os.path.basename(path) == "models.py":
            continue
        for node in ast.walk(ast.parse(open(path).read())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if (any(isinstance(o, ast.Attribute) and o.attr.startswith("apply_")
                        for o in operands)
                        and any(isinstance(o, ast.Constant) and o.value is None
                                for o in operands)):
                    checks.append((os.path.basename(path), node.lineno))
    assert not checks, checks


def test_worker_count_has_one_home():
    # SEMIGRAD_THREADS is the one worker setting: outside engine.py no function
    # takes or passes threads, and engine.py hands fork workers their block
    # function without a threading lock
    src = os.path.dirname(sg.__file__)
    uses = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        name = os.path.basename(path)
        for node in ast.walk(ast.parse(open(path).read())):
            if name == "engine.py":
                modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                           else [node.module] if isinstance(node, ast.ImportFrom) else [])
                if "threading" in modules:
                    uses.append((name, node.lineno, "import threading"))
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg == "threads":
                uses.append((name, node.lineno, "threads"))
    assert not uses, uses


def test_integer_inputs_have_one_home():
    # paths._integer is the one integer check (counts, indices, keys); only the
    # CLI's text parser reads an integer another way, and _count stays deleted
    src = os.path.dirname(sg.__file__)
    homes = {("paths.py", "_integer"), ("cli.py", "_parse_int")}
    found = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        name = os.path.basename(path)
        text = open(path).read()
        tree = ast.parse(text)
        found += [(name, f.lineno, "def _count") for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "_count"]
        spans = [(f.lineno, f.end_lineno) for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef) and (name, f.name) in homes]
        found += [(name, n, line.strip()) for n, line in enumerate(text.splitlines(), 1)
                  if ("operator.index(" in line or '"__index__"' in line)
                  and not any(a <= n <= b for a, b in spans)]
    assert not found, found


def test_random_draws_have_one_home():
    # paths._keyed is the one place a seed becomes a generator, and no module
    # offsets a seed to reach another stream
    src = os.path.dirname(sg.__file__)
    keying = re.compile(r"Philox|SeedSequence|np\.random\.Generator\(|default_rng")
    found = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        name = os.path.basename(path)
        text = open(path).read()
        spans = [(f.lineno, f.end_lineno) for f in ast.walk(ast.parse(text))
                 if isinstance(f, ast.FunctionDef) and f.name == "_keyed" and name == "paths.py"]
        found += [(name, n, line.strip()) for n, line in enumerate(text.splitlines(), 1)
                  if (keying.search(line) and not any(a <= n <= b for a, b in spans))
                  or re.search(r"\bseed\s*[-+]", line)]
    assert not found, found


def test_simulate_callbacks_keep_their_contract():
    # the Hessian correction is a sum, not an accumulator in a hook, and every
    # flow is None or a callable: no module passes a string flow=
    src = os.path.dirname(sg.__file__)
    assert "nonlocal" not in open(os.path.join(src, "estimators.py")).read()
    string_flows = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        for node in ast.walk(ast.parse(open(path).read())):
            string_flows += [(os.path.basename(path), node.lineno)
                             for key in getattr(node, "keywords", [])
                             if key.arg == "flow" and isinstance(key.value, ast.Constant)
                             and isinstance(key.value.value, str)]
            if isinstance(node, ast.Dict):
                string_flows += [(os.path.basename(path), node.lineno)
                                 for k, v in zip(node.keys, node.values)
                                 if isinstance(k, ast.Constant) and k.value == "flow"
                                 and isinstance(v, ast.Constant) and isinstance(v.value, str)]
    assert not string_flows, string_flows
