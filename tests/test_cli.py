import csv
import io
import json
import os

import numpy as np
import pytest

from semigrad.cli import (CSV_COLUMNS, config_from_dict, main,
                          parse_config_text, records_to_csv, run_experiment,
                          run_suite)
from semigrad.engine import resolve_threads
from semigrad.errors import InvalidConfig, UnknownEstimator, UnknownScenario

FAST = dict(n_paths=4000, n_steps=200)


def _cfg(**kw):
    base = dict(scenario="bm1d", estimator="bel_gradient", observable="sin",
                t=1.0, seed=42, **FAST)
    base.update(kw)
    return config_from_dict(base)


class TestConfigParsing:
    def test_key_value_text(self):
        text = """
        # gradient experiment
        scenario = bm1d
        estimator = bel_gradient
        f = sin
        t = 1
        n_paths = 1000
        n_steps = 100
        seed = 7
        x0 = 0.0
        v0 = 1.0
        """
        cfg = parse_config_text(text)
        assert cfg.scenario == "bm1d"
        assert cfg.observable == "sin"
        assert cfg.n_paths == 1000
        assert cfg.x0.tolist() == [0.0]

    def test_json_text(self):
        cfg = parse_config_text(json.dumps(
            {"scenario": "ou1d", "estimator": "semigroup_value",
             "observable": "x_sq", "n_paths": 10, "n_steps": 10}))
        assert cfg.scenario == "ou1d"

    def test_vector_parsing(self):
        cfg = _cfg(scenario="sphere3", x0="1,0,0", v0="0,0,1")
        assert cfg.x0.tolist() == [1.0, 0.0, 0.0]

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            _cfg(scenario="nope")

    def test_unknown_estimator(self):
        with pytest.raises(UnknownEstimator):
            _cfg(estimator="nope")

    def test_invalid_values(self):
        with pytest.raises(InvalidConfig):
            _cfg(t=-1.0)
        with pytest.raises(InvalidConfig):
            _cfg(n_paths=0)
        with pytest.raises(InvalidConfig):
            _cfg(n_steps=0)
        with pytest.raises(InvalidConfig):
            _cfg(delta=0.0)
        with pytest.raises(InvalidConfig):
            _cfg(n_inner=0)
        with pytest.raises(InvalidConfig, match="n_paths"):
            _cfg(n_paths="abc")
        with pytest.raises(InvalidConfig, match="t must"):
            _cfg(t="nan")
        with pytest.raises(InvalidConfig, match="t must"):
            _cfg(t="inf")
        with pytest.raises(InvalidConfig, match="format"):
            _cfg(format="xml")
        with pytest.raises(InvalidConfig):
            parse_config_text("scenario: bm1d")
        with pytest.raises(InvalidConfig):
            parse_config_text("   ")

    @pytest.mark.parametrize("seed", [2 ** 53 + 1, str(2 ** 53 + 1), 2 ** 64 - 1,
                                      str(2 ** 64 - 1)])
    def test_large_seed_parsed_exactly(self, seed):
        assert _cfg(seed=seed).seed == int(seed)

    @pytest.mark.parametrize("val", ["1e5", 1e5, 100000.0, "100000"])
    def test_integral_float_accepted(self, val):
        assert _cfg(n_paths=val).n_paths == 100_000

    @pytest.mark.parametrize("key,val", [("seed", 1.5), ("seed", "1.5"), ("n_paths", "2.5"),
                                         ("n_steps", "nan"), ("n_inner", "inf")])
    def test_non_integral_rejected(self, key, val):
        with pytest.raises(InvalidConfig, match=f"{key} must be an integer"):
            _cfg(**{key: val})

    @pytest.mark.parametrize("key,val", [("tol_rel", "nan"), ("tol_abs", "nan"),
                                         ("tol_rel", -1.0), ("tol_abs", "-0.5"),
                                         ("tol_abs", "inf"), ("tol_rel", float("inf"))])
    def test_tolerance_must_be_finite_and_non_negative(self, key, val):
        # an infinite tolerance passes every row and a NaN one is never read
        with pytest.raises(InvalidConfig, match=key):
            _cfg(**{key: val})

    @pytest.mark.parametrize("seed", [-1, "-1", 2 ** 64, str(2 ** 64)])
    def test_seed_out_of_range_rejected(self, seed):
        with pytest.raises(InvalidConfig, match="seed"):
            _cfg(seed=seed)

    @pytest.mark.parametrize("a,b", [(2 ** 53, 2 ** 53 + 1), (0, 2 ** 64 - 1)])
    def test_distinct_seeds_draw_distinct_noise(self, a, b):
        # seeds that float parsing used to alias must give different paths
        small = dict(n_paths=256, n_steps=20)
        assert run_experiment(_cfg(seed=a, **small)).mean != \
            run_experiment(_cfg(seed=b, **small)).mean


class TestRunExperiment:
    def test_gradient_with_oracle(self):
        rec = run_experiment(_cfg(n_paths=30_000, n_steps=400))
        assert abs(rec.oracle - np.exp(-0.5)) < 1e-12
        assert rec.passed is True
        assert rec.abs_error < 0.02

    def test_constant_observable(self):
        rec = run_experiment(_cfg(observable="one"))
        assert rec.oracle == 0.0
        assert rec.passed is True

    def test_mean_reproducible_bitwise(self):
        a = run_experiment(_cfg())
        b = run_experiment(_cfg())
        assert a.mean == b.mean

    def test_score_needs_target(self):
        with pytest.raises(InvalidConfig):
            run_experiment(_cfg(estimator="score_gradient"))

    def test_score_with_target(self):
        rec = run_experiment(_cfg(estimator="score_gradient", observable="one",
                                  y="1.0", n_paths=40_000, bandwidth=0.1))
        assert abs(rec.oracle - 1.0) < 1e-12
        assert rec.passed is True

    def test_potential_reduction(self):
        rec = run_experiment(_cfg(estimator="potential_gradient",
                                  potential="const:0.5", n_paths=30_000,
                                  n_steps=400))
        assert abs(rec.oracle - 1.0) < 1e-12
        assert rec.passed is True

    def test_form_estimator(self):
        rec = run_experiment(config_from_dict(dict(
            scenario="circle", estimator="one_form_semigroup",
            form="dtheta_s1", t=1.0, seed=3, n_paths=20_000, n_steps=300)))
        assert rec.oracle == 1.0
        assert rec.passed is True

    def test_hessian_variants(self):
        for est in ("bel_hessian_weights", "bel_hessian_nested"):
            rec = run_experiment(_cfg(estimator=est, observable="x_sq",
                                      scenario="ou1d", n_paths=30_000,
                                      n_steps=400, tol_rel=0.05))
            assert rec.passed is True, est

    def test_lie_group(self):
        rec = run_experiment(config_from_dict(dict(
            scenario="so3", estimator="lie_group_gradient",
            observable="trace_e1", t=0.5, seed=5, n_paths=20_000, n_steps=200,
            tol_rel=0.05)))
        assert rec.passed is True

    @pytest.mark.parametrize("est", ["bel_gradient", "finite_difference"])
    def test_so3_ambient_estimator_default_direction(self, est):
        # the scenario's v0 is in algebra coordinates; ambient estimators get the skew matrix
        cfg = config_from_dict(dict(
            scenario="so3", estimator=est, observable="trace_e1", t=0.5, seed=5,
            n_paths=20_000, n_steps=100, tol_rel=0.05))
        rec = run_experiment(cfg)
        assert rec.config["v0"] == [1.0, 0.0, 0.0]
        assert rec.passed is True


class TestSuite:
    def _write_manifest(self, tmp_path, entries):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_small_suite_passes(self, tmp_path):
        entries = [
            dict(scenario="bm1d", estimator="bel_gradient", observable="sin",
                 n_paths=20_000, n_steps=300, seed=1),
            dict(scenario="ou1d", estimator="semigroup_value",
                 observable="x_sq", n_paths=20_000, n_steps=300, seed=2),
        ]
        records, had_error = run_suite(self._write_manifest(tmp_path, entries))
        assert not had_error
        assert all(r.passed for r in records)
        text = records_to_csv(records)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 3
        # round-trip: mean column parses back to the exact float
        assert float(rows[1][6]) == records[0].mean

    def test_empty_manifest(self, tmp_path):
        records, had_error = run_suite(self._write_manifest(tmp_path, []))
        assert records == [] and not had_error
        text = records_to_csv(records)
        assert text.strip() == ",".join(CSV_COLUMNS)

    def test_unknown_scenario_collected_as_error(self, tmp_path):
        entries = [dict(scenario="nope", estimator="bel_gradient",
                        observable="sin", n_paths=10, n_steps=10)]
        records, had_error = run_suite(self._write_manifest(tmp_path, entries))
        assert had_error
        assert records[0].error.startswith("UnknownScenario")


class TestMainEntry:
    def test_run_exit_codes(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("scenario=bm1d\nestimator=bel_gradient\nf=sin\n"
                            "n_paths=20000\nn_steps=300\nseed=11\n")
        rc = main(["run", "--config", str(cfg_file)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["pass"] is True

    def test_run_csv_output(self, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("scenario=bm1d\nestimator=bel_gradient\nf=one\n"
                            "n_paths=2000\nn_steps=100\n")
        out_file = tmp_path / "report.csv"
        rc = main(["run", "--config", str(cfg_file), "--out", str(out_file),
                   "--format", "csv"])
        assert rc == 0
        rows = list(csv.reader(out_file.open()))
        assert rows[0] == CSV_COLUMNS

    def test_run_missing_config_exits_1(self, capsys):
        assert main(["run", "--config", "/nonexistent.cfg"]) == 1

    def test_tolerance_failure_exits_2(self, tmp_path, capsys):
        # a 2-step grid makes the OU discretization error dominate the tolerance
        cfg_file = tmp_path / "coarse.txt"
        cfg_file.write_text("scenario=ou1d\nestimator=bel_gradient\nf=x\n"
                            "n_paths=20000\nn_steps=2\nseed=1\n")
        assert main(["run", "--config", str(cfg_file)]) == 2

    @pytest.mark.parametrize("flag", ["--paths", "--steps"])
    def test_run_zero_override_exits_1(self, tmp_path, capsys, flag):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("scenario=bm1d\nestimator=bel_gradient\nf=sin\n"
                            "n_paths=100\nn_steps=10\n")
        assert main(["run", "--config", str(cfg_file), flag, "0"]) == 1
        assert ("n_paths" if flag == "--paths" else "n_steps") in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_rejected(self, tmp_path, capsys, monkeypatch, workers):
        # a count below 1 used to run one worker silently
        with pytest.raises(InvalidConfig, match="SEMIGRAD_THREADS"):
            resolve_threads(int(workers))
        monkeypatch.setenv("SEMIGRAD_THREADS", workers)
        with pytest.raises(InvalidConfig, match="SEMIGRAD_THREADS"):
            resolve_threads()
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("scenario=bm1d\nestimator=bel_gradient\nf=sin\n"
                            "n_paths=100\nn_steps=10\n")
        assert main(["run", "--config", str(cfg_file)]) == 1
        assert "SEMIGRAD_THREADS" in capsys.readouterr().err

    def test_non_integer_threads_env_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SEMIGRAD_THREADS", "two")
        with pytest.raises(InvalidConfig, match="SEMIGRAD_THREADS"):
            resolve_threads()
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("scenario=bm1d\nestimator=bel_gradient\nf=sin\n"
                            "n_paths=100\nn_steps=10\n")
        assert main(["run", "--config", str(cfg_file)]) == 1
        assert "SEMIGRAD_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,field", [("--steps", "n_steps"), ("--paths", "n_paths")])
    def test_check_zero_override_exits_1(self, capsys, flag, field):
        assert main(["check", "bm1d", flag, "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("sid,seed", [("bm1d", "-1"), ("sphere3", "-1"),
                                          ("so3", str(2 ** 64))])
    def test_check_seed_out_of_range_exits_1(self, capsys, sid, seed):
        assert main(["check", sid, "--seed", seed, "--paths", "100", "--steps", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err and "Traceback" not in err

    def test_check_accepts_the_top_seed(self, capsys):
        # no offset is added to a seed, so check accepts every seed run does
        assert main(["check", "so3", "--seed", str(2 ** 64 - 1), "--paths", "100",
                     "--steps", "10"]) != 1
        assert "error" not in capsys.readouterr().err

    def test_run_negative_seed_exits_1(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("scenario=bm1d\nestimator=bel_gradient\nf=sin\n"
                            "n_paths=100\nn_steps=10\n")
        assert main(["run", "--config", str(cfg_file), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err and "Traceback" not in err

    def test_run_non_numeric_value_exits_1(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("scenario=bm1d\nestimator=bel_gradient\nf=sin\nn_paths=abc\n")
        assert main(["run", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_paths" in err

    def test_suite_malformed_json_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text('[{"scenario": "bm1d",')
        assert main(["suite", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "manifest" in err

    @pytest.mark.parametrize("potential", ["const:abc", "wave:1"])
    def test_run_bad_potential_exits_1(self, tmp_path, capsys, potential):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("scenario=bm1d\nestimator=potential_gradient\nf=sin\n"
                            f"potential={potential}\nn_paths=100\nn_steps=10\n")
        assert main(["run", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and potential in err and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_run_empty_const_potential_has_oracle(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("scenario=bm1d\nestimator=potential_gradient\nf=sin\n"
                            "potential=const:\nn_paths=2000\nn_steps=50\n")
        assert main(["run", "--config", str(cfg_file)]) in (0, 2)
        out = json.loads(capsys.readouterr().out)
        assert out["oracle"] == pytest.approx(np.exp(-0.5), rel=1e-15)

    def test_suite_non_object_entry_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([1, dict(
            scenario="bm1d", estimator="bel_gradient", observable="sin",
            n_paths=2000, n_steps=50, seed=1)]))
        stem = str(tmp_path / "rep")
        assert main(["suite", str(manifest), "--out", stem]) == 1
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads(open(stem + ".json").read())
        assert len(payload) == 2
        assert payload[0]["error"].startswith("InvalidConfig") and "entry 0" in payload[0]["error"]
        assert payload[1]["error"] == "" and payload[1]["oracle"] is not None
        assert len(list(csv.reader(open(stem + ".csv")))) == 3

    def test_run_unknown_scenario_exits_1(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.txt"
        cfg_file.write_text("scenario=zzz\nestimator=bel_gradient\n")
        assert main(["run", "--config", str(cfg_file)]) == 1

    def test_suite_exit_and_files(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            dict(scenario="bm1d", estimator="bel_gradient", observable="sin",
                 n_paths=20_000, n_steps=300, seed=1)]))
        stem = str(tmp_path / "suite_report")
        rc = main(["suite", str(manifest), "--out", stem])
        assert rc == 0
        assert os.path.exists(stem + ".csv") and os.path.exists(stem + ".json")
        payload = json.loads(open(stem + ".json").read())
        assert payload[0]["pass"] is True

    def test_suite_error_exit(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([dict(scenario="zzz", estimator="x")]))
        assert main(["suite", str(manifest)]) == 1

    def test_shipped_smoke_manifest_passes(self, tmp_path, capsys):
        manifest = os.path.join(os.path.dirname(__file__), "..", "manifests",
                                "smoke.json")
        stem = str(tmp_path / "smoke")
        assert main(["suite", manifest, "--out", stem]) == 0
        payload = json.loads(open(stem + ".json").read())
        assert all(rec["pass"] for rec in payload)

    def test_list_stable_and_sorted(self, capsys):
        assert main(["list"]) == 0
        out1 = capsys.readouterr().out
        assert main(["list"]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        for sid in ("bm1d", "ou1d", "circle", "sphere3", "so3"):
            assert sid + ":" in out1
        ids = [line.split(":")[0] for line in out1.splitlines()
               if line and not line.startswith(" ") and not line.startswith("estimators")]
        assert ids == sorted(ids)
        assert "oracles:" in out1

    def test_check_subcommand(self, tmp_path, capsys):
        out_file = tmp_path / "checks.json"
        rc = main(["check", "bm1d", "--paths", "4000", "--steps", "200",
                   "--out", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CHECK martingale_mean: PASS" in out
        payload = json.loads(out_file.read_text())
        assert all(c["passed"] for c in payload)

    def test_threads_env_does_not_change_mean(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("scenario=bm1d\nestimator=bel_gradient\nf=sin\n"
                            "n_paths=30000\nn_steps=200\nseed=3\n")
        means = []
        old = os.environ.get("SEMIGRAD_THREADS")
        try:
            for workers in ("1", "3"):
                os.environ["SEMIGRAD_THREADS"] = workers
                main(["run", "--config", str(cfg_file)])
                means.append(json.loads(capsys.readouterr().out)["mean"])
        finally:
            if old is None:
                os.environ.pop("SEMIGRAD_THREADS", None)
            else:
                os.environ["SEMIGRAD_THREADS"] = old
        assert means[0] == means[1]
