"""Workload definitions for the semigrad benchmark.

Each workload is a list of experiment configs (the `semigrad run` key set).
The rows are a copy of
`manifests/acceptance.json`, so the benchmark's inputs do not move when the
manifest is edited; the budgets are reduced to fit one benchmark run.

Every row is checked against its registry oracle on every seed, so each
row's path budget is set where its own tolerance is at least about 5 SE
(measured on seed code).  At that budget a calibrated estimator misses its
check on well under one seed in 10^4, and a miss points at the code, not
at the draw.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

HALF_PI = "1.5707963267948966"

# Fork workers for every workload, capped at nproc.  On a 2-core machine a
# 1-worker run leaves a core idle and its pass times wandered by 16-20%
# (quartile spread over 5 seeds); with both cores busy the spread was 4%.
WORKERS = 2

# The 15 rows of manifests/acceptance.json (scenario, estimator, seed,
# tolerance and estimator options; budgets are set per workload below).
ACCEPTANCE_ROWS = [
    {"scenario": "bm1d", "estimator": "bel_gradient", "observable": "sin", "t": 1.0, "seed": 42, "tol_rel": 0.015},
    {"scenario": "bm1d", "estimator": "bel_gradient", "observable": "sin", "x0": HALF_PI, "t": 1.0, "seed": 42, "tol_abs": 0.0091},
    {"scenario": "bm1d", "estimator": "pathwise_gradient", "observable": "sin", "t": 1.0, "seed": 43, "tol_rel": 0.015},
    {"scenario": "bm1d", "estimator": "finite_difference", "observable": "sin", "t": 1.0, "seed": 43, "tol_rel": 0.015},
    {"scenario": "bm1d", "estimator": "bel_hessian_weights", "observable": "sin", "x0": HALF_PI, "t": 1.0, "seed": 44, "tol_rel": 0.03},
    {"scenario": "bm1d", "estimator": "bel_hessian_nested", "observable": "sin", "x0": HALF_PI, "t": 1.0, "seed": 44, "tol_rel": 0.03},
    {"scenario": "ou1d", "estimator": "bel_hessian_weights", "observable": "x_sq", "t": 1.0, "seed": 45, "tol_rel": 0.03},
    {"scenario": "bm1d", "estimator": "potential_gradient", "observable": "sin", "potential": "const:0.5", "t": 1.0, "seed": 46, "tol_rel": 0.02},
    {"scenario": "bm1d", "estimator": "score_gradient", "observable": "one", "y": "1.0", "bandwidth": 0.05, "t": 1.0, "seed": 47, "tol_rel": 0.05},
    {"scenario": "sphere3", "estimator": "hessian_flow_gradient", "observable": "height", "t": 0.5, "seed": 48, "tol_rel": 0.03},
    {"scenario": "circle", "estimator": "one_form_semigroup", "form": "dtheta_s1", "t": 1.0, "seed": 49, "tol_rel": 0.02},
    {"scenario": "circle", "estimator": "one_form_semigroup", "form": "exact:sin", "t": 1.0, "seed": 50, "tol_rel": 0.02},
    {"scenario": "sphere3", "estimator": "q_form_semigroup", "form": "vol_s2", "t": 1.0, "seed": 51, "tol_rel": 0.03},
    {"scenario": "so3", "estimator": "lie_group_gradient", "observable": "trace_e1", "t": 0.5, "seed": 52, "tol_rel": 0.03},
    {"scenario": "ou1d", "estimator": "bel_gradient", "observable": "x", "t": 1.0, "seed": 53, "tol_rel": 0.02},
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: tuple        # (index into ACCEPTANCE_ROWS, n_paths) per row
    n_steps: int


# Path budgets of acceptance-mix, an even number of 16384-path blocks per
# row so both workers get the same share.  (tol / SE at 32768 paths and
# 100 steps, seed code, in brackets.)  Rows 6, 10 and 12 (ou1d
# bel_hessian_weights [1.3], circle dtheta_s1 [1.9] and sphere3 vol_s2
# [1.5-1.9, heavy-tailed]) are left out: at 5 SE they would need 0.5M, 0.26M
# and 0.4M+ paths, 18 s of a 14 s pass, and the layers they call are
# called by the other rows.
MIX_BUDGETS = (
    (0, 98304), (1, 98304), (2, 65536), (3, 65536),   # [3.1 3.0 4.0 4.0]
    (4, 163840), (5, 163840),                         # [2.4 2.4]
    (7, 65536), (8, 32768), (9, 65536),               # [3.8 48 4.7]
    (11, 196608),   # [2.5; z sits about +0.4 SE high at 32768 paths]
    (13, 65536), (14, 98304),                         # [4.6 3.2]
)

WORKLOADS = {w.name: w for w in (
    Workload("flat-grad",
             "bm1d bel_gradient: noise-bound, no geometry, so a noise change shows and a geometry change does not",
             rows=((0, 65536),), n_steps=1000),
    Workload("acceptance-mix",
             "12 acceptance rows, each at a budget where its oracle check is robust: every estimator, flow, form, the FD oracle and a pool per row",
             rows=MIX_BUDGETS, n_steps=100),
)}


def row_seed(seed, index: int, manifest_seed: int) -> int:
    """The manifest seed when ``seed`` is None, else one derived from (seed, row)."""
    if seed is None:
        return manifest_seed
    digest = hashlib.sha256(f"semigrad-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def configs(workload: Workload, seed, *, n_paths=None) -> list:
    """Raw config dicts for every row of ``workload``, at its budget or ``n_paths``."""
    out = []
    for index, budget in workload.rows:
        row = dict(ACCEPTANCE_ROWS[index])
        row["seed"] = row_seed(seed, index, row["seed"])
        row["n_paths"] = n_paths or budget
        row["n_steps"] = workload.n_steps
        out.append(row)
    return out
