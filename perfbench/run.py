"""semigrad benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload flat-grad --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
load is a closed loop: one caller runs the workload's experiments back to back
through ``semigrad.cli.run_experiment``, each waiting for the last, at the
workload's fixed worker count.  A pass is one run of every row of the
workload; passes repeat until ``--seconds`` have gone by.

``--trace 0`` prints the end-to-end metrics, measured untraced.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics from
the span recorder (``spans.py``) plus isolated layer probes.  Every run checks
its outputs: each row against its registry oracle at its own tolerance (misses
count as ``failed``), means bit-identical across passes, traced against
untraced, and, for multi-worker workloads, against a 1-worker pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller report, and
in traced runs the raw spans, are written under ``perfbench/out/``.
"""

import os

# Pin the BLAS/OpenMP pools before numpy is imported: the bundled OpenBLAS
# otherwise starts one thread per core in the benchmark and in every worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from spans import Recorder, summarize  # noqa: E402
from workloads import WORKERS, WORKLOADS, configs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WARMUP_PATHS = 1024       # in-process warm-up pass, every row
SETUP_WARMUP_PATHS = 256  # warm-up call of one set-up, first row
SETUP_REPEATS = 15

END_TO_END = {
    "wall_s": "s", "path_steps_per_s": "1/s", "time_to_tol_s": "s",
    "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "pass_fraction": "ratio",
}

_ESTIMATORS = ("pathwise_gradient", "bel_gradient", "bel_hessian",
               "potential_gradient", "hessian_flow_gradient", "score_gradient",
               "lie_group_gradient")
_MODELS = ("rotation_exp", "geometry_step", "apply_coeff", "apply_right_inverse",
           "metric_dot", "ad_inverse", "retract")
_FLOWS = ("first_variation_step", "second_variation_step", "hessian_flow_step",
          "transport_step")

PER_LAYER = {
    "paths.noise_block.calls": "count", "paths.noise_block.self_s": "s",
    "paths.noise_block.normals": "count", "paths.noise_block.bytes": "B",
    "paths.noise_block.ns_per_normal": "ns",
    "paths.noise_block.probe_ns_per_normal": "ns",
    **{f"models.{m}.{k}": u for m in _MODELS for k, u in (("calls", "count"), ("self_s", "s"))},
    "models.rotation_exp.probe_s": "s",
    **{f"variation.{f}.{k}": u for f in _FLOWS
       for k, u in (("calls", "count"), ("self_s", "s"), ("incl_s", "s"))},
    "forms.q_form_semigroup.self_s": "s",
    "diagnostics.finite_difference_oracle.self_s": "s",
    **{f"estimators.{e}.self_s": "s" for e in _ESTIMATORS},
    "engine.map_blocks.calls": "count", "engine.map_blocks.blocks": "count",
    "engine.map_blocks.workers": "count", "engine.map_blocks.self_s": "s",
    "engine.empty_map_s": "s", "engine.scalar_stats.self_s": "s",
    "engine.combine_scalar.self_s": "s", "engine.ok_ratio": "ratio",
    "cli.run_experiment.self_s": "s", "trace.overhead_s": "s",
}


def import_semigrad():
    """Import semigrad from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "semigrad", "__init__.py")):
        sys.exit("error: src/semigrad not found; run from a semigrad checkout")
    sys.path.insert(0, SRC)
    import semigrad
    import semigrad.cli

    if not os.path.abspath(semigrad.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported semigrad from {semigrad.__file__}, not src/")
    return semigrad


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_row(sg, raw, workers) -> dict:
    # run_experiment takes no worker count, so pin the one it resolves
    os.environ["SEMIGRAD_THREADS"] = str(workers)
    cfg = sg.cli.config_from_dict(raw)
    row = {"scenario": cfg.scenario, "estimator": cfg.estimator,
           "seed": cfg.seed, "path_steps": cfg.n_paths * cfg.n_steps}
    t0 = time.perf_counter()
    try:
        rec = sg.cli.run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - a raising row counts as failed
        row.update(wall=time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}",
                   traceback=traceback.format_exc(), mean=None, passed=False)
        return row
    row["wall"] = time.perf_counter() - t0
    row.update(mean=rec.mean, se=rec.std_error, oracle=rec.oracle,
               n_paths=rec.n_paths, n_rejected=rec.n_rejected,
               passed=rec.passed is True)
    if rec.oracle is not None:
        row["tol"] = max(cfg.tol_rel * abs(rec.oracle), cfg.tol_abs)
        row["z"] = (rec.mean - rec.oracle) / rec.std_error if rec.std_error else None
    return row


def run_pass(sg, rows, workers) -> dict:
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    results = [run_row(sg, raw, workers) for raw in rows]
    return {"wall": time.perf_counter() - t0, "cpu": cpu_seconds() - cpu0,
            "rows": results}


def means(p) -> list:
    return [None if r["mean"] is None else float(r["mean"]).hex() for r in p["rows"]]


def peak_rss_mb(workers) -> float:
    """Peak RSS of this process plus, when it forks, workers x the largest worker."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kib += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def setup_seconds(workload, seed) -> float:
    """Median wall time of fresh processes that import, build and warm up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload.name]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_probe(workload, seed, workers):
    """One set-up: import, scenario build, first warm-up call and first fork."""
    sg = import_semigrad()
    rows = configs(workload, seed)
    models = [sg.get_scenario(sg.cli.config_from_dict(raw).scenario).make()
              for raw in rows]
    run_row(sg, configs(workload, seed, n_paths=SETUP_WARMUP_PATHS)[0], 1)
    if workers > 1:
        first = rows[0]
        size = sg.engine.default_block_size(first["n_steps"], models[0].m)
        empty_map(sg, first["n_paths"], size, workers, repeats=1)


# -- isolated layer probes on fixed inputs ---------------------------------------


def _median_time(fn, repeats) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def empty_map(sg, n_paths, block_size, workers, repeats) -> float:
    """Median seconds of a map_blocks call whose blocks do nothing."""
    return _median_time(lambda: sg.engine.map_blocks(
        n_paths, lambda lo, hi: None, threads=workers, block_size=block_size), repeats)


def probes(sg) -> dict:
    import numpy as np

    flat, mix = WORKLOADS["flat-grad"], WORKLOADS["acceptance-mix"]
    mix_paths = mix.rows[0][1]
    grid = sg.TimeGrid(t_end=1.0, n_steps=flat.n_steps)
    size = sg.engine.default_block_size(flat.n_steps, 1)
    noise_s = _median_time(lambda: sg.paths.noise_block(grid, 0, 0, size, 1), 3)
    w = 0.03 * np.random.default_rng(0).standard_normal((8192, 3))
    return {
        "paths.noise_block.probe_ns_per_normal": noise_s / (size * flat.n_steps) * 1e9,
        "models.rotation_exp.probe_s": _median_time(lambda: sg.models.rotation_exp(w), 20),
        "engine.empty_map_s": empty_map(
            sg, mix_paths, sg.engine.default_block_size(mix.n_steps, 1), WORKERS, 5),
    }


# -- metrics --------------------------------------------------------------------


def end_to_end(passes, setup_s, peak_mb) -> dict:
    wall = statistics.median(p["wall"] for p in passes)
    to_tol = []  # per row: seconds to reach its tolerance at 3 SE
    for attempts in zip(*(p["rows"] for p in passes)):
        first = attempts[0]
        if first.get("tol"):
            row_wall = statistics.median(r["wall"] for r in attempts)
            to_tol.append(row_wall * (3.0 * first["se"] / first["tol"]) ** 2)
    attempted = sum(len(p["rows"]) for p in passes)
    passed = sum(r["passed"] for p in passes for r in p["rows"])
    return {
        "wall_s": wall,
        "path_steps_per_s": sum(r["path_steps"] for r in passes[0]["rows"]) / wall,
        "time_to_tol_s": sum(to_tol),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": peak_mb,
        "setup_s": setup_s,
        "pass_fraction": passed / attempted,
    }


def per_layer(rec, traced, untraced, probe_values) -> dict:
    n = len(traced)
    calls, incl, self_s = summarize(rec.spans)
    out = {}
    for name in PER_LAYER:
        span, _, key = name.rpartition(".")
        if key == "calls":
            out[name] = calls[span] / n
        elif key == "self_s":
            out[name] = self_s[span] / n
        elif key == "incl_s":
            out[name] = incl[span] / n
    counts = rec.counts
    normals = counts["paths.noise_block.normals"]
    out["paths.noise_block.normals"] = normals / n
    out["paths.noise_block.bytes"] = counts["paths.noise_block.bytes"] / n
    out["paths.noise_block.ns_per_normal"] = (
        self_s["paths.noise_block"] / normals * 1e9 if normals else 0.0)
    out["engine.map_blocks.blocks"] = counts["engine.map_blocks.blocks"] / n
    out["engine.map_blocks.workers"] = counts["engine.map_blocks.workers"]
    rows = [r for p in traced for r in p["rows"] if "n_paths" in r]
    total = sum(r["n_paths"] for r in rows)
    out["engine.ok_ratio"] = (total - sum(r["n_rejected"] for r in rows)) / total
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in untraced))
    out.update(probe_values)
    if set(out) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step: {set(PER_LAYER) ^ set(out)}")
    return out


def environment(sg, workload, workers) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "semigrad": sg.__version__,
            "workload": workload.name, "workers": workers,
            "trace": "fork-worker spans come back through map_blocks; traced passes keep the workers",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; omitted = the manifest seeds")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workers = min(WORKERS, os.cpu_count() or 1)
    if args.setup_probe:
        setup_probe(workload, args.seed, workers)
        return 0

    sg = import_semigrad()
    rows = configs(workload, args.seed)
    run_pass(sg, configs(workload, args.seed, n_paths=WARMUP_PATHS), workers)

    rec = Recorder()
    passes, traced = [], []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        passes.append(run_pass(sg, rows, workers))
        if args.trace:
            rec.install(sg)
            try:
                traced.append(run_pass(sg, rows, workers))
            finally:
                rec.uninstall()
    peak_mb = peak_rss_mb(workers)

    reference = means(passes[0])
    mismatches = [f"{kind} pass {i}"
                  for kind, group in (("untraced", passes), ("traced", traced))
                  for i, p in enumerate(group) if means(p) != reference]
    single = None
    if workers > 1:
        single = run_pass(sg, rows, 1)
        if means(single) != reference:
            mismatches.append("1-worker pass")
    correct = not mismatches

    if args.trace:
        metrics = per_layer(rec, traced, passes, probes(sg))
        units = PER_LAYER
    else:
        metrics = end_to_end(passes, setup_seconds(workload, args.seed), peak_mb)
        units = END_TO_END
    attempted = sum(len(p["rows"]) for p in passes)
    failed = sum(not r["passed"] for p in passes for r in p["rows"])

    env = environment(sg, workload, workers)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"environment": env, "seconds": args.seconds, "seed": args.seed,
                   "mismatches": mismatches, "metrics": metrics, "passes": passes,
                   "traced": traced, "one_worker": single}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.jsonl", "w") as fh:
            for sid, parent, name, t0, t1, block in rec.spans:
                fh.write(json.dumps([name, list(sid), parent and list(parent),
                                     t0, t1, block]) + "\n")

    print("environment: " + json.dumps(env))
    for r in passes[0]["rows"]:
        print(f"row {r['scenario']}/{r['estimator']} seed={r['seed']}: "
              f"mean={r['mean']} oracle={r.get('oracle')} z={r.get('z')} passed={r['passed']}"
              + (f" error={r['error']}" if "error" in r else ""))
    if mismatches:
        print("bit-identity mismatch: " + ", ".join(mismatches))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
