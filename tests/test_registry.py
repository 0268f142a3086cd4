"""Static consistency of the registry: every id it names resolves, without running anything."""

import glob
import json
import os

import numpy as np
import pytest

from semigrad.errors import InvalidConfig
from semigrad.models import skew_from_axis
from semigrad.registry import (ESTIMATOR_IDS, ESTIMATORS, ambient_direction,
                               get_scenario, parse_potential, scenario_ids)

MANIFESTS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                          os.pardir, "manifests", "*.json")))


def test_estimator_ids_have_table_entries():
    assert ESTIMATOR_IDS and all(callable(ESTIMATORS.get(est)) for est in ESTIMATOR_IDS)


@pytest.mark.parametrize("sid", scenario_ids())
def test_oracle_keys_name_registered_ids(sid):
    sc = get_scenario(sid)
    bad = sorted(key for key in sc.oracles
                 if key[0] not in ESTIMATOR_IDS
                 or key[1] not in set(sc.observables) | set(sc.forms))
    assert not bad, f"{sid} oracles never consulted: {bad}"


def test_manifest_estimators_registered():
    assert MANIFESTS
    for path in MANIFESTS:
        rows = json.load(open(path))
        unknown = sorted({row["estimator"] for row in rows} - set(ESTIMATOR_IDS))
        assert not unknown, f"{os.path.basename(path)} names unknown estimators {unknown}"


def test_parse_potential():
    assert parse_potential("") == ("const", 0.0)
    assert parse_potential("const:") == ("const", 0.0)
    assert parse_potential("ramp:-0.5") == ("ramp", -0.5)
    for text in ("const:abc", "wave:1", "const:nan", "ramp:inf"):
        with pytest.raises(InvalidConfig, match="potential"):
            parse_potential(text)


def test_ambient_direction():
    so3 = get_scenario("so3").make()
    v = np.array([0.3, -1.0, 2.0])
    assert np.array_equal(ambient_direction(so3, v), skew_from_axis(v).reshape(-1))
    skew = skew_from_axis(v).reshape(-1)
    assert np.array_equal(ambient_direction(so3, skew), skew)
    bm = get_scenario("bm1d").make()
    assert np.array_equal(ambient_direction(bm, [2.0]), [2.0])
