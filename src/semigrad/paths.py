"""Keyed random draws, driving noise and the path-stepping kernel on a fixed time grid.

Every random draw comes from ``_keyed(seed, stream, index)``, the one place
a seed becomes a generator, and no two keys share one.  Each 256-path tile
of noise is ``_keyed(seed, stream, tile)`` drawing step-major, so every path
is reproducible from its index alone; ``_AUX_STREAM`` and ``_SAMPLE_STREAM``
key the draws that are not path noise.  ``_integer`` checks every integer input (seed,
stream, path_index, lo, hi, m and the counts) and raises ``InvalidConfig`` naming it.
Noise reaches ``simulate`` as an iterator of steps, each the (B, m)
increments of one time step, read once and in order.  Every estimator and
diagnostic block iterates a ``NoiseStream``, which draws a few steps at a
time into one small reused buffer; ``noise_block`` is the same draw
materialized, kept for ``generate_noise`` and for checking the stream
against.
``simulate`` is the one SDE time loop of the package: Euler-Maruyama in the
ambient space, with a retraction or group step for manifold-constrained
models, co-evolving the direction fields and gradient weights every
estimator needs.  ``integrate_block`` runs it and records every state and
field, for inspecting paths one at a time or in a block.
Path data is component-major: the states, fields and noise steps are
Fortran-ordered (B, n) and (B, m) arrays, so the component ``x[:, i]`` that
model callbacks read is contiguous.  Elementwise arithmetic keeps that
order; sums over the component axis are ``make_dot`` and ``matvec`` sums,
whose bits do not depend on the layout or the block size.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import variation
from .errors import DimensionMismatch, InvalidConfig, MissingDerivative, ZeroDirection
from .models import add_terms, apply_coeff, apply_right_inverse, make_dot

_UINT64_MASK = (1 << 64) - 1
_AUX_STREAM = 1 << 32  # bel_hessian's split index (inner paths use streams 1..n_inner)
_SAMPLE_STREAM = _AUX_STREAM + 1  # + 0 for sample_points, + 1 for sample_directions
_TILE = 256  # paths per keyed generator
# no smaller: freeing it lifts a fork worker's mmap threshold above so3's (B, 9) temporaries
_CHUNK_BYTES = 2 * 2 ** 20  # a NoiseStream's reused buffer


def _integer(name: str, value, lo: int = 1, hi: int | None = None) -> int:
    """Any ``__index__`` value but a bool, as an int in [lo, hi or inf], else ``InvalidConfig``."""
    try:
        n = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < lo or (hi is not None and n > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise InvalidConfig(f"{name} must be an integer {bound}, got {value!r}")
    return n


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with points t_k = k * dt exactly."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        _integer("n_steps", self.n_steps)
        if isinstance(self.t_end, (bool, np.bool_)) or not 0 < self.t_end < np.inf:
            raise InvalidConfig(f"t_end must be positive and finite, got {self.t_end!r}")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        # k * dt elementwise, never a cumulative sum
        return np.arange(self.n_steps + 1) * self.dt


def generate_noise(grid: TimeGrid, seed: int, path_index: int, m: int) -> np.ndarray:
    """The (n_steps, m) Brownian increments of one path, each N(0, dt I).

    Deterministic in (seed, path_index): a row of the path's 256-path tile,
    so it draws the whole tile.  The increments are row 0 of ``noise_block``.
    """
    path_index = _integer("path_index", path_index, 0, _UINT64_MASK)
    return noise_block(grid, seed, path_index, path_index + 1, m)[0]


def _keyed(seed: int, stream: int, index: int) -> np.random.Generator:
    """A fresh SFC64 generator keyed by (seed, stream, index), each an integer in [0, 2**64).

    The key is the three low 32-bit words, then [1, high words] if any value
    reaches 2**32: SeedSequence pads words with zeros, so [s, 2**32, 0] is [s, 0, 1].
    """
    key = [_integer(name, value, 0, _UINT64_MASK)
           for name, value in (("seed", seed), ("stream", stream), ("index", index))]
    words = [v & 0xFFFFFFFF for v in key]
    if max(key) >> 32:
        words += [1] + [v >> 32 for v in key]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


def sample_points(model, count: int, seed: int = 0) -> np.ndarray:
    """Quasi-random evaluation points: on-manifold or in the declared box."""
    rng = _keyed(seed, _SAMPLE_STREAM, 0)
    if model.geometry is not None and model.geometry.sample is not None:
        return model.geometry.sample(count, rng)
    from scipy.stats import qmc

    lo, hi = model.domain
    return lo + (hi - lo) * qmc.Halton(d=model.n, rng=rng).random(count)


def sample_directions(model, points: np.ndarray, seed: int = 0) -> np.ndarray:
    """Unit directions at the given points, tangent for constrained models."""
    v = _keyed(seed, _SAMPLE_STREAM + 1, 0).standard_normal(points.shape)
    if model.geometry is not None:
        v = model.geometry.project_tangent(points, v)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms < 1e-12):
        raise ZeroDirection("degenerate sampled direction")
    return v / norms


class NoiseStream:
    """Increments for paths lo..hi-1: an iterable of n_steps steps, each (hi-lo, m).

    Iterating it yields step k's Fortran-ordered (hi-lo, m) increments for
    k = 0, 1, 2, ...: the transpose of a contiguous (m, hi-lo) slice of one
    reused (c, m, hi-lo) buffer of about ``_CHUNK_BYTES``, filled a chunk of
    c steps at a time, so a step is valid only until the next one is
    read.  Read it once: the tile generators are not rewound, so a second
    pass would draw the steps after the last.  Two ``simulate`` calls can
    share one ``iter(stream)`` across a split of the steps.
    Each 256-path tile is one SFC64 generator keyed by (seed, stream, tile)
    that draws step-major: step k's (256, m) increments are its draws
    [k 256 m, (k+1) 256 m), which the buffer stores transposed.  A tile the
    block only overlaps still draws all 256 rows at every step, so row i
    depends only on (seed, lo + i, stream), never on the block bounds.
    """

    def __init__(self, grid: TimeGrid, seed: int, lo: int, hi: int, m: int, stream: int = 0):
        for name, value in (("seed", seed), ("stream", stream)):  # an empty range keys no tile
            _integer(name, value, 0, _UINT64_MASK)
        lo = _integer("lo", lo, 0, 1 << 64)
        hi = _integer("hi", hi, lo, 1 << 64)
        m = _integer("m", m, 0)
        if m == 0:
            raise DimensionMismatch("noise dimension m must be >= 1, got 0")
        K = grid.n_steps
        self.shape = (hi - lo, K, m)
        self._sqrt_dt = np.sqrt(grid.dt)
        self._tiles = []  # (generator, its rows in the block, where they land)
        for tile in range(lo // _TILE, -(-hi // _TILE)):
            first, stop = max(lo, tile * _TILE), min(hi, (tile + 1) * _TILE)
            self._tiles.append((_keyed(seed, stream, tile),
                                slice(first - tile * _TILE, stop - tile * _TILE),
                                slice(first - lo, stop - lo)))
        step_bytes = max(1, (hi - lo) * m * 8)
        self._buf = np.empty((min(K, max(1, _CHUNK_BYTES // step_bytes)), m, hi - lo))

    def _draw(self, out: np.ndarray):
        """The next len(out) steps of every tile, scaled by sqrt(dt), into out (c, m, hi-lo)."""
        scratch = np.empty((len(out), _TILE, self.shape[2]))
        for gen, rows, dest in self._tiles:
            gen.standard_normal(out=scratch)
            np.multiply(scratch[:, rows].transpose(0, 2, 1), self._sqrt_dt, out=out[:, :, dest])

    def __iter__(self):
        K, size = self.shape[1], len(self._buf)
        for start in range(0, K, size):
            chunk = self._buf[:min(size, K - start)]
            self._draw(chunk)
            yield from (step.T for step in chunk)


def noise_block(grid: TimeGrid, seed: int, lo: int, hi: int, m: int,
                stream: int = 0) -> np.ndarray:
    """Increments for paths lo..hi-1 as a (hi-lo, n_steps, m) view: a ``NoiseStream`` materialized.

    The whole stream is drawn as one chunk of n_steps into the stream's
    (n_steps, m, hi-lo) buffer layout; the result is that buffer's transposed
    view, so ``[:, k]`` is the stream's Fortran-ordered step k, and
    ``.transpose(1, 0, 2)`` is the steps ``simulate`` iterates.  It holds
    n_steps x (hi-lo) x m floats, so no estimator block calls it; it backs
    ``generate_noise`` and the tests that pin the stream's draws.
    """
    noise = NoiseStream(grid, seed, lo, hi, m, stream)
    out = np.empty((grid.n_steps, m, hi - lo))
    noise._draw(out)
    return out.transpose(2, 0, 1)


def _stratonovich_ito_drift(model, x) -> np.ndarray:
    """A(x) + 1/2 sum_i DX(x)(X(x) e_i) e_i for batched x of shape (B, n)."""
    acc = np.zeros(x.shape)
    for e in np.eye(model.m):
        acc += model.apply_DX(x, model.apply_X(x, e), e)
    out = 0.5 * acc
    if model.A is not None:
        out = out + model.A(x)
    return out


def resolve_ito_drift(model):
    """The batched Ito drift of ``model``: Z, else A plus the Stratonovich correction."""
    if model.Z is not None:
        return model.Z
    if model.A is None:
        raise MissingDerivative("model supplies no drift (Z or A)")
    model.require("DX")
    return lambda x: _stratonovich_ito_drift(model, x)


def weight(model, i, metric=None):
    """Increment of the gradient weight of direction vs[i] for ``simulate``'s sums.

    <v_i, X(x) dB> in the metric (the default on manifolds), otherwise
    <Y(x) v_i, dB>.
    """
    if metric is None:
        metric = model.geometry is not None
    if metric:
        return lambda k, x, x_dB, dW, vs: model.metric_dot(x, x_dB, vs[i])
    dot = make_dot(model.m)
    return lambda k, x, x_dB, dW, vs: dot(apply_right_inverse(model, x, vs[i]), dW)


def simulate(model, grid: TimeGrid, x, dWs, alive=None, *, vs=(),
             flow=None, sums=(), hook=None, step=None):
    """Step a block of paths from states x (B, n) through the steps of dWs.

    x and the fields ``vs`` are copied into Fortran-ordered (B, n) arrays,
    and the built-in steps and flows keep that order, so every callback gets
    component-major states and fields (see the module docstring).

    dWs is any iterable of (B, m) increments, such as a ``NoiseStream``, an
    iterator over one shared by several calls, or a step-major (K, B, m)
    array; ``simulate`` takes exactly ``grid.n_steps`` steps from it and
    raises ``DimensionMismatch`` if it runs short or a step is not (B, m).
    No step is kept past its own iteration, so a stream may reuse its buffer.
    A step or flow may return its input array (a zero field adds nothing,
    see ``models.add_terms``), so no callback may write into a state or field.

    ``alive`` is the starting survival mask (all True by default).  While
    every path is alive the sums add their increments unmasked.
    Each callback has one job; step k works at the left endpoint x_k:
    - ``step(k, x, dW)`` -> (x1, X(x) dW) moves the paths, by default by the
      Euler, retraction or group step; the group step makes X(x) dW only
      when there are sums (None otherwise);
    - running total i adds ``sums[i](k, x, X(x) dW, dW, vs)`` on live paths
      (see ``weight``), in list order; only sums read X(x) dW;
    - ``flow(k, x, x1, vs, dW)`` carries ``vs``: None is the first
      variation, else a callable such as ``variation.hessian_flow``;
    - ``hook(k, x, vs, alive)`` only observes, at every state k = 0..K
      (the last after the final step).
    Paths whose new state leaves the blow-up radius freeze and drop out.
    Returns (x, alive, vs, totals) after the last step.
    """
    x = np.array(x, dtype=float, order="F")
    if x.ndim != 2 or x.shape[1] != model.n:
        raise DimensionMismatch(f"states must be (B, {model.n}), got {x.shape}")
    B, K, m = len(x), grid.n_steps, model.m
    dt = grid.dt
    alive = np.ones(B, dtype=bool) if alive is None else alive
    vs = [np.array(np.broadcast_to(v, (B, model.n)), order="F") for v in vs]
    totals = [np.zeros(B) for _ in sums]
    if step is None:
        geom = model.geometry
        drift = resolve_ito_drift(model)
        group_step = geom.step if geom is not None else None

        def step(k, x, dW):
            if group_step is not None:
                # the group step moves x itself; X(x) dW only feeds the sums
                return group_step(x, dW, dt), apply_coeff(model, x, dW) if sums else None
            x_dB = apply_coeff(model, x, dW)
            x1 = add_terms(x, x_dB, drift(x) * dt)
            if geom is not None:
                x1 = geom.retract(x1)
            return x1, x_dB

    if flow is None:
        def flow(k, x, x1, vs, dW):
            return [variation.first_variation_step(model, x, x1, v, dW, dt) for v in vs]
    dot = make_dot(model.n)
    radius_sq = model.blow_up_radius ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        steps = iter(dWs)
        for k in range(K):
            dW = next(steps, None)
            if dW is None:
                raise DimensionMismatch(f"noise ran out after {k} of {K} steps")
            if dW.shape != (B, m):
                raise DimensionMismatch(f"noise step {k} is {dW.shape}, model expects {(B, m)}")
            x1, x_dB = step(k, x, dW)
            all_alive = alive.all()
            for acc, term in zip(totals, sums):
                inc = term(k, x, x_dB, dW, vs)
                acc += inc if all_alive else np.where(alive, inc, 0.0)
            if hook is not None:
                hook(k, x, vs, alive)
            vs = flow(k, x, x1, vs, dW)
            ok = dot(x1, x1) <= radius_sq
            if all_alive and ok.all():
                x = x1
            else:
                alive = alive & ok
                x = np.where(alive[:, None], x1, x)
    if hook is not None:
        hook(K, x, vs, alive)
    return x, alive, vs, totals


def integrate_block(model, x0s: np.ndarray, grid: TimeGrid, dWs, *,
                    vs=(), flow=None, sums=(), step=None):
    """Step a block of paths through ``simulate``, recording every state and field.

    Takes ``simulate``'s own ``dWs``/``vs``/``flow``/``sums``/``step``, but dWs
    must hold exactly n_steps steps; one path's (n_steps, m) increments
    ``noise`` step a (1, n) block as ``noise[:, None]``.  Returns
    (states (B, K+1, n), alive (B,), blow_step (B,) with -1 for none,
    fields: one (B, K+1, n) array per entry of vs, totals).
    """
    B, K = len(x0s), grid.n_steps
    states = np.empty((B, K + 1, model.n))
    alives = np.empty((B, K + 1), dtype=bool)
    fields = [np.empty((B, K + 1, model.n)) for _ in vs]

    def record(k, x, vs, alive):
        states[:, k] = x
        alives[:, k] = alive
        for field, v in zip(fields, vs):
            field[:, k] = v

    steps = iter(dWs)
    x, alive, vs, totals = simulate(model, grid, x0s, steps, vs=vs, flow=flow,
                                    sums=sums, hook=record, step=step)
    if next(steps, None) is not None:
        raise DimensionMismatch(f"noise holds more than the grid's {K} steps")
    # survival is monotone, so the first False marks the blow-up step
    blow_step = np.where(alive, -1, np.argmin(alives, axis=1))
    return states, alive, blow_step, fields, totals
