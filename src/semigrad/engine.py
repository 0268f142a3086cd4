"""Deterministic block-parallel Monte Carlo driver.

Paths are processed in fixed-size blocks keyed by path index.  Each block
reduces its per-path columns to ``Moments`` with numpy's pairwise summation;
blocks are then merged in index order, so results are bit-identical for any
worker count (workers only decide who computes a block, never how sums are grouped).
Workers are forked processes where the platform allows it, since the step
loops are Python-bound and do not scale under the GIL.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .paths import _TILE

DEFAULT_BLOCK_SIZE = 2048
# The block partition's budget: what a block's (K, B, m) noise would hold if it
# were materialized.  No block holds it any more, but the partition fixes the
# reduction tree, so changing this moves the bits of every mean.
_NOISE_BLOCK_BYTES = 256 * 2 ** 20

_FORK_FN = None  # a fork worker's block function, set by the pool initializer


def _install(block_fn):
    global _FORK_FN
    _FORK_FN = block_fn


def _call_fork_fn(bounds):
    return _FORK_FN(bounds[0], bounds[1])


def default_block_size(n_steps: int, m: int) -> int:
    """Block size for n_steps x m noise: one ``paths._TILE``, doubled up to 16384 within a budget.

    Every estimator and diagnostic block streams its noise a few steps at a
    time, so the ``_NOISE_BLOCK_BYTES`` budget no longer bounds any buffer;
    it survives only as the partition rule.  A pure function of (n_steps, m):
    the block partition is part of the deterministic reduction tree, so it
    must not depend on the machine, and changing the rule moves bits.
    """
    budget = _NOISE_BLOCK_BYTES // max(1, n_steps * m * 8)
    size = _TILE
    while size * 2 <= min(budget, 16384):
        size *= 2
    return size


def resolve_threads(threads=None) -> int:
    """Worker count: ``threads`` if given, else ``SEMIGRAD_THREADS``, else min(4, cores)."""
    value = threads if threads is not None else os.environ.get("SEMIGRAD_THREADS")
    if value is None or value == "":
        return min(4, os.cpu_count() or 1)
    try:
        workers = int(value)
    except (TypeError, ValueError):
        workers = 0
    if workers < 1:
        raise InvalidConfig(f"SEMIGRAD_THREADS must be an integer >= 1, got {value!r}")
    return workers


def block_ranges(n_paths: int, block_size: int = DEFAULT_BLOCK_SIZE):
    return [(lo, min(lo + block_size, n_paths))
            for lo in range(0, n_paths, block_size)]


def map_blocks(n_paths: int, block_fn, *, threads=None,
               block_size: int = DEFAULT_BLOCK_SIZE) -> list:
    """Apply block_fn(lo, hi) to every block, returning results in block order."""
    ranges = block_ranges(n_paths, block_size)
    workers = min(resolve_threads(threads), len(ranges))
    if workers <= 1 or multiprocessing.get_start_method(allow_none=False) != "fork":
        return [block_fn(lo, hi) for lo, hi in ranges]
    # a forked worker inherits the initializer's arguments unpickled
    with multiprocessing.get_context("fork").Pool(workers, _install, (block_fn,)) as pool:
        return pool.map(_call_fork_fn, ranges, chunksize=1)


class Moments(NamedTuple):
    """Sum, squared deviations about the mean and count of a set of values.

    ``a + b`` merges two sets by the Chan-Golub-LeVeque rule, so the spread
    survives a large common offset; the sums add plainly, which keeps
    ``total / n`` bitwise the mean of a running sum.
    """

    total: float
    m2: float
    n: int

    def __add__(self, other):
        n = self.n + other.n
        delta = other.total / max(other.n, 1) - self.total / max(self.n, 1)
        return Moments(self.total + other.total,
                       self.m2 + other.m2 + delta * delta * (self.n * other.n / max(n, 1)), n)

    def __radd__(self, zero):  # sum() starts from 0
        return Moments(zero + self.total, self.m2, self.n)


def scalar_stats(columns, ok: np.ndarray):
    """(Moments of each column's values on the survivors ``ok``..., n_rejected) for one block."""
    stats = []
    for values in columns:
        if np.shape(values) != ok.shape:  # a (B, 1) column times a (B,) weight is (B, B)
            raise DimensionMismatch(f"per-path column of shape {np.shape(values)}, not {ok.shape}")
        good = values[ok]
        total = float(np.sum(good))
        n = max(good.size, 1)
        dev = good - total / n
        # corrected two-pass: the second term cancels the rounding of the block mean
        m2 = max(0.0, float(np.sum(dev * dev)) - float(np.sum(dev)) ** 2 / n)
        stats.append(Moments(total, m2, int(good.size)))
    return (*stats, int(ok.size - np.count_nonzero(ok)))


def combine_scalar(blocks):
    """Merge per-block ``scalar_stats`` tuples position by position, in block order."""
    return tuple(sum(column) for column in zip(*blocks))
