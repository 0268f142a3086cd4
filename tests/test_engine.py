"""The one Monte Carlo reducer: per-path columns to merged ``Moments``."""

import numpy as np

from semigrad import engine


def _block(seed, size=1000, alive=0.9):
    rng = np.random.default_rng(seed)
    columns = (rng.standard_normal(size), 1e8 + rng.standard_normal(size), rng.random(size) ** 3)
    return columns, rng.random(size) < alive


def test_scalar_stats_reduces_each_column_alone():
    columns, ok = _block(0)
    *stats, n_rej = engine.scalar_stats(columns, ok)
    assert len(stats) == len(columns)
    assert n_rej == np.count_nonzero(~ok) > 0  # counted once, not once per column
    for values, moments in zip(columns, stats):
        alone, alone_rej = engine.scalar_stats((values,), ok)
        assert moments == alone  # bitwise: total, m2 and n
        assert alone_rej == n_rej
        assert moments.n == np.count_nonzero(ok)
        assert moments.total == float(np.sum(values[ok]))


def test_combine_scalar_merges_position_by_position():
    blocks = [engine.scalar_stats(*_block(seed, 300)) for seed in range(3)]
    blocks.append(engine.scalar_stats(*_block(3, 300, alive=0.0)))  # a block with no survivor
    *merged, n_rej = engine.combine_scalar(blocks)
    assert n_rej == sum(b[-1] for b in blocks)
    for i, moments in enumerate(merged):
        assert moments == blocks[0][i] + blocks[1][i] + blocks[2][i] + blocks[3][i]
        assert moments.n == sum(b[i].n for b in blocks)
