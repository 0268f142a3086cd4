"""Config-driven experiment runner.

Subcommands: ``run`` (one experiment), ``suite`` (a manifest of experiments,
CSV + JSON reports), ``check`` (the diagnostic suite for a scenario), and
``list`` (registry contents).  Configs are flat key=value text or JSON; a
report echoes the config, the estimate, the analytic oracle when the
registry declares one, and a pass/fail verdict at the configured tolerance.

Exit codes: 0 pass, 2 tolerance failure, 1 error.
SEMIGRAD_THREADS caps the worker count; results do not depend on it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
import sys
import time
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from . import diagnostics
from .errors import InvalidConfig, SemigradError, UnknownEstimator
from .models import apply_coeff, apply_right_inverse
from .paths import _UINT64_MASK, TimeGrid, _integer, sample_directions, sample_points
from .registry import (ESTIMATOR_IDS, ESTIMATORS, ambient_direction, get_scenario,
                       scenario_ids)

CSV_COLUMNS = ["scenario", "estimator", "t", "n_paths", "n_steps", "seed",
               "mean", "std_error", "oracle", "abs_error", "pass", "wall_ms"]

@dataclass
class ExperimentConfig:
    scenario: str
    estimator: str
    observable: str = ""
    form: str = ""
    t: float = 1.0
    n_paths: int = 200_000
    n_steps: int = 1000
    seed: int = 0
    x0: Optional[np.ndarray] = None
    v0: Optional[np.ndarray] = None
    u0: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    potential: str = ""
    bandwidth: float = 0.05
    kernel: str = "box"
    n_inner: int = 8
    delta: float = 1e-3
    tol_rel: float = 0.02
    tol_abs: float = 0.01
    out: str = ""
    format: str = "json"

    def validate(self):
        if not 0 < self.t < np.inf:
            raise InvalidConfig(f"t must be positive and finite, got {self.t}")
        for name in ("n_paths", "n_steps", "n_inner"):
            _integer(name, getattr(self, name))
        _integer("seed", self.seed, 0, _UINT64_MASK)
        if self.delta == 0 or not np.isfinite(self.delta):
            raise InvalidConfig("delta must be finite and nonzero")
        for name in ("tol_rel", "tol_abs"):
            if not 0 <= getattr(self, name) < np.inf:
                raise InvalidConfig(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.format not in ("json", "csv"):
            raise InvalidConfig(f"format must be json or csv, got {self.format!r}")
        if self.estimator not in ESTIMATOR_IDS:
            raise UnknownEstimator(
                f"unknown estimator {self.estimator!r}; known: {list(ESTIMATOR_IDS)}")
        get_scenario(self.scenario)

    def echo(self) -> dict:
        return _json_safe(asdict(self))


@dataclass
class ReportRecord:
    config: dict
    mean: float
    std_error: float
    n_paths: int
    n_rejected: int
    seed: int
    oracle: Optional[float]
    abs_error: Optional[float]
    passed: Optional[bool]
    wall_ms: float
    metadata: dict = field(default_factory=dict)
    error: str = ""

    def csv_row(self):
        cfg = self.config
        return [cfg.get("scenario", ""), cfg.get("estimator", ""),
                cfg.get("t", ""), cfg.get("n_paths", ""), cfg.get("n_steps", ""),
                cfg.get("seed", ""),
                repr(self.mean) if self.mean is not None else "",
                repr(self.std_error) if self.std_error is not None else "",
                "" if self.oracle is None else repr(self.oracle),
                "" if self.abs_error is None else repr(self.abs_error),
                "" if self.passed is None else str(self.passed).lower(),
                f"{self.wall_ms:.1f}"]

    def to_json(self) -> dict:
        return {("pass" if k == "passed" else k): v
                for k, v in _json_safe(asdict(self)).items()}


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _parse_vector(text) -> np.ndarray:
    if isinstance(text, (list, tuple)):
        return np.asarray(text, dtype=float)
    return np.asarray([float(p) for p in str(text).split(",")], dtype=float)


def _parse_int(key, val) -> int:
    """An int or integer string exactly; a float such as 1e5 only when integral."""
    try:
        return int(val) if isinstance(val, str) else operator.index(val)
    except (TypeError, ValueError):
        num = float(val)
    if not num.is_integer():
        raise InvalidConfig(f"{key} must be an integer, got {val!r}")
    return int(num)


_VECTOR_KEYS = ("x0", "v0", "u0", "y")
_INT_KEYS = ("n_paths", "n_steps", "seed", "n_inner")
_FLOAT_KEYS = ("t", "bandwidth", "delta", "tol_rel", "tol_abs")
_ALIASES = {"f": "observable", "paths": "n_paths", "steps": "n_steps"}


def config_from_dict(raw: dict) -> ExperimentConfig:
    data = {}
    for key, val in raw.items():
        key = _ALIASES.get(key, key)
        if isinstance(val, (bool, np.bool_)) and key in _INT_KEYS + _FLOAT_KEYS:
            raise InvalidConfig(f"{key} must be numeric, got {val!r}")
        try:
            if key in _VECTOR_KEYS:
                val = _parse_vector(val)
            elif key in _INT_KEYS:
                val = _parse_int(key, val)
            elif key in _FLOAT_KEYS:
                val = float(val)
        except (TypeError, ValueError):
            raise InvalidConfig(f"{key} must be numeric, got {val!r}") from None
        data[key] = val
    try:
        cfg = ExperimentConfig(**data)
    except TypeError as exc:
        raise InvalidConfig(str(exc)) from None
    cfg.validate()
    return cfg


def parse_config_text(text: str) -> ExperimentConfig:
    """Flat key=value lines (# comments allowed) or a JSON object."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return config_from_dict(_load_json(stripped, "config"))
    raw = {}
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        raw[key.strip()] = val.strip()
    if not raw:
        raise InvalidConfig("empty config")
    return config_from_dict(raw)


def _load_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{what} is not valid JSON: {exc}") from None


def _run_estimator(cfg: ExperimentConfig):
    sc = get_scenario(cfg.scenario)
    model = sc.make()
    grid = TimeGrid(t_end=cfg.t, n_steps=cfg.n_steps)
    x0 = cfg.x0 if cfg.x0 is not None else sc.x0
    v0 = cfg.v0 if cfg.v0 is not None else sc.v0
    u0 = cfg.u0 if cfg.u0 is not None else sc.u0
    cfg.x0, cfg.v0, cfg.u0 = np.asarray(x0, float), np.asarray(v0, float), np.asarray(u0, float)
    return ESTIMATORS[cfg.estimator](model, sc, cfg, grid,
                                     dict(n_paths=cfg.n_paths, seed=cfg.seed))


def _oracle_for(cfg: ExperimentConfig) -> Optional[float]:
    sc = get_scenario(cfg.scenario)
    key = (cfg.estimator, cfg.form or cfg.observable)
    fn = sc.oracles.get(key)
    return None if fn is None else float(fn(cfg))


def run_experiment(cfg: ExperimentConfig) -> ReportRecord:
    """Run one configured estimator and attach the registry oracle."""
    t0 = time.perf_counter()
    result = _run_estimator(cfg)
    wall_ms = (time.perf_counter() - t0) * 1e3
    oracle = _oracle_for(cfg)
    abs_error = None
    passed = None
    if oracle is not None:
        abs_error = abs(result.mean - oracle)
        tol = max(3.0 * result.std_error, cfg.tol_rel * abs(oracle), cfg.tol_abs)
        passed = bool(abs_error <= tol) and result.valid
    return ReportRecord(config=cfg.echo(), mean=result.mean,
                        std_error=result.std_error, n_paths=result.n_paths,
                        n_rejected=result.n_rejected, seed=result.seed,
                        oracle=oracle, abs_error=abs_error, passed=passed,
                        wall_ms=wall_ms, metadata=result.metadata)


def _error_record(raw_cfg: dict, exc: Exception) -> ReportRecord:
    return ReportRecord(config=dict(raw_cfg), mean=None, std_error=None,
                        n_paths=0, n_rejected=0, seed=raw_cfg.get("seed", 0),
                        oracle=None, abs_error=None, passed=None, wall_ms=0.0,
                        error=f"{type(exc).__name__}: {exc}")


def run_suite(manifest_path: str):
    """Run a JSON manifest (array of config objects); returns (records, had_error)."""
    with open(manifest_path) as fh:
        entries = _load_json(fh.read(), "suite manifest")
    if not isinstance(entries, list):
        raise InvalidConfig("suite manifest must be a JSON array of configs")
    records = []
    had_error = False
    for i, raw in enumerate(entries):
        try:
            if not isinstance(raw, dict):
                raise InvalidConfig(f"manifest entry {i} is not a JSON object: {raw!r}")
            records.append(run_experiment(config_from_dict(raw)))
        except Exception as exc:  # noqa: BLE001 - suite aggregates failures
            had_error = True
            records.append(_error_record(raw if isinstance(raw, dict) else {}, exc))
    return records, had_error


def records_to_csv(records) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([CSV_COLUMNS] + [rec.csv_row() for rec in records])
    return buf.getvalue()


def list_scenarios() -> str:
    """Sorted registry listing with per-scenario oracle coverage."""
    lines = []
    for sid in scenario_ids():
        sc = get_scenario(sid)
        oracles = sorted({f"{est}({obs})" for est, obs in sc.oracles})
        oracle_text = ", ".join(oracles) if oracles else "none"
        lines.append(f"{sid}: {sc.description}")
        lines.append(f"  observables: {', '.join(sorted(sc.observables)) or 'none'}")
        lines.append(f"  forms: {', '.join(sorted(sc.forms)) or 'none'}")
        lines.append(f"  oracles: {oracle_text}")
    lines.append("estimators: " + ", ".join(ESTIMATOR_IDS))
    return "\n".join(lines)


def run_checks(scenario_id: str, *, n_paths=20_000, n_steps=400, t=1.0, seed=0):
    """Diagnostic suite for one scenario; returns a list of BoundCheckReports."""
    sc = get_scenario(scenario_id)
    model = sc.make()
    grid = TimeGrid(t_end=t, n_steps=n_steps)
    v0 = ambient_direction(model, sc.v0)
    checks = [diagnostics.martingale_mean_check(model, grid, sc.x0, v0,
                                                n_paths=n_paths, seed=seed),
              diagnostics.moment_bound_check(model, grid, sc.x0, v0, p=2,
                                             n_paths=n_paths, seed=seed)]
    pts = sample_points(model, 64, seed)
    dirs = sample_directions(model, pts, seed)
    resid = float(np.max(np.abs(
        apply_coeff(model, pts, apply_right_inverse(model, pts, dirs)) - dirs)))
    checks.append(diagnostics.BoundCheckReport(
        name="right_inverse_identity", claimed_bound=1e-8, empirical=resid,
        margin=1e-8 - resid, passed=bool(resid <= 1e-8),
        details={"n_samples": 64}))
    if model.geometry is not None:
        worst = diagnostics.constraint_violation(model, grid, sc.x0,
                                                 n_paths=min(n_paths, 10_000), seed=seed)
        checks.append(diagnostics.BoundCheckReport(
            name="manifold_constraint", claimed_bound=1e-9, empirical=worst,
            margin=1e-9 - worst, passed=bool(worst <= 1e-9), details={}))
    else:
        obs = next(iter(sc.observables.values()))
        checks.append(diagnostics.gronwall_gradient_bound(
            model, obs, grid, sc.x0, v0, n_paths=n_paths, seed=seed))
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semigrad",
        description="Monte Carlo estimation of diffusion semigroup derivatives")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", required=True, help="key=value or JSON config file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--paths", type=int, default=None)
    p_run.add_argument("--steps", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "json"), default=None)

    p_suite = sub.add_parser("suite", help="run a JSON manifest of experiments")
    p_suite.add_argument("manifest")
    p_suite.add_argument("--out", default=None, help="output stem (.csv and .json)")

    p_check = sub.add_parser("check", help="run the diagnostic suite for a scenario")
    p_check.add_argument("scenario")
    p_check.add_argument("--paths", type=int, default=20_000)
    p_check.add_argument("--steps", type=int, default=400)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", default=None)

    sub.add_parser("list", help="list registered scenarios and estimators")

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            print(list_scenarios())
            return 0
        if args.command == "run":
            with open(args.config) as fh:
                cfg = parse_config_text(fh.read())
            for arg, key in (("seed", "seed"), ("paths", "n_paths"), ("steps", "n_steps"),
                             ("out", "out"), ("format", "format")):
                if getattr(args, arg) is not None:
                    setattr(cfg, key, getattr(args, arg))
            cfg.validate()
            record = run_experiment(cfg)
            _emit([record], cfg.out, cfg.format)
            return 2 if record.passed is False else 0
        if args.command == "suite":
            records, had_error = run_suite(args.manifest)
            csv_text = records_to_csv(records)
            json_text = json.dumps([r.to_json() for r in records], indent=2)
            if args.out:
                with open(args.out + ".csv", "w") as fh:
                    fh.write(csv_text)
                with open(args.out + ".json", "w") as fh:
                    fh.write(json_text)
            else:
                sys.stdout.write(csv_text)
            return 1 if had_error else 2 if any(r.passed is False for r in records) else 0
        if args.command == "check":
            checks = run_checks(args.scenario, n_paths=args.paths,
                                n_steps=args.steps, seed=args.seed)
            payload = []
            ok = True
            for chk in checks:
                status = "PASS" if chk.passed else "FAIL"
                print(f"CHECK {chk.name}: {status} "
                      f"(empirical={chk.empirical:.6g}, bound={chk.claimed_bound:.6g})")
                ok &= chk.passed
                payload.append({"name": chk.name, "passed": chk.passed,
                                "empirical": chk.empirical,
                                "bound": chk.claimed_bound,
                                "details": _json_safe(chk.details)})
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(payload, fh, indent=2)
            return 0 if ok else 2
    except (SemigradError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _emit(records, out, fmt):
    if fmt == "csv":
        text = records_to_csv(records)
    else:
        payload = [r.to_json() for r in records]
        text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
