"""Bitwise pins of every estimator, form and diagnostic at a tiny budget.

Each case runs at 512 paths and 20 steps with one worker (plus one case on
two blocks and two workers, and one with paths that blow up) and pins
``float.hex`` of its means and standard errors together with the rejected
path counts.  Any change to summation order, stepping or noise shows here
as a changed hex string, long before it moves a statistical test.
"""

import json
import os

import numpy as np
import pytest

import semigrad as sg
from semigrad import cli, diagnostics, estimators, forms
from semigrad.models import PotentialField, TimeDependentCoefficients

from conftest import make_sine_noise_model

N_PATHS = 512
GRID = sg.TimeGrid(1.0, 20)
MANIFEST = os.path.join(os.path.dirname(__file__), os.pardir, "manifests",
                        "acceptance.json")


def _pin(*values):
    return [float.hex(float(v)) if isinstance(v, (float, np.floating)) else int(v)
            for v in values]


def _result(r):
    return _pin(r.mean, r.std_error, r.n_rejected)


def _row_case(row):
    def run():
        cfg = cli.config_from_dict(dict(row, n_paths=N_PATHS, n_steps=GRID.n_steps))
        return _result(cli._run_estimator(cfg))
    return run


def _scenario(sid):
    sc = sg.get_scenario(sid)
    return sc, sc.make()


def _form_gradient_q1():
    sc, model = _scenario("circle")
    zf = forms.zero_form_from_observable(sc.observables["sin"])
    return _result(forms.form_exterior_gradient(model, zf, GRID, sc.x0, (sc.v0,),
                                                n_paths=N_PATHS, seed=3, threads=1))


def _form_gradient_q2():
    sc, model = _scenario("sphere3")
    form = forms.exact_one_form(sc.observables["sin"])
    return _result(forms.form_exterior_gradient(model, form, GRID, sc.x0,
                                                (sc.u0, sc.v0), n_paths=N_PATHS,
                                                seed=4, threads=1))


def _manifold_hessian():
    sc, model = _scenario("sphere3")
    return _result(estimators.bel_hessian(model, sc.observables["height"], GRID,
                                          sc.x0, sc.u0, sc.v0, variant="weights",
                                          n_paths=N_PATHS, seed=5, threads=1))


def _flat_hessian(variant, n_paths=N_PATHS, threads=1):
    def run():
        model = make_sine_noise_model()
        return _result(estimators.bel_hessian(model, lambda x: np.sin(x[..., 0]), GRID,
                                              [0.3], [1.0], [1.0], variant=variant,
                                              n_paths=n_paths, seed=15, threads=threads,
                                              n_inner=3))
    return run


def _circle_finite_difference():
    sc, model = _scenario("circle")
    return _result(diagnostics.finite_difference_oracle(
        model, sc.observables["sin"], GRID, sc.x0, sc.v0, delta=1e-2,
        n_paths=N_PATHS, seed=16, threads=1))


def _circle_score():
    sc, model = _scenario("circle")
    bins = estimators.ConditionalBinSpec(target=np.array([0.0, 1.0]), bandwidth=0.5,
                                         kernel="gaussian")
    return _result(estimators.score_gradient(model, GRID, sc.x0, sc.v0, bins,
                                             n_paths=N_PATHS, seed=17, threads=1))


def _manifold_potential():
    sc, model = _scenario("sphere3")
    V = PotentialField(V=lambda t, x: 0.3 * x[..., 2] + 0.1 * t,
                       dV=lambda t, x: np.broadcast_to([0.0, 0.0, 0.3], x.shape),
                       upper_bound=0.4)
    return _result(estimators.potential_gradient(model, sc.observables["height"], V,
                                                 GRID, sc.x0, sc.v0,
                                                 n_paths=N_PATHS, seed=6, threads=1))


def _time_coeffs_potential():
    sc, model = _scenario("bm1d")
    tc = TimeDependentCoefficients(
        X=lambda t, x: np.sqrt(1.0 + t) * np.ones(x.shape + (1,)),
        Z=lambda t, x: -0.5 * t * x,
        DX=lambda t, x, v: np.zeros(x.shape + (1,)),
        DZ=lambda t, x, v: -0.5 * t * v,
        Y=lambda t, x: np.ones(x.shape + (1,)) / np.sqrt(1.0 + t))
    V = PotentialField(V=lambda t, x: 0.2 * np.sin(x[..., 0]),
                       dV=lambda t, x: 0.2 * np.cos(x),
                       upper_bound=0.2)
    return _result(estimators.potential_gradient(model, sc.observables["sin"], V,
                                                 GRID, [0.3], [1.0],
                                                 n_paths=N_PATHS, seed=7, threads=1,
                                                 time_coeffs=tc))


def _variation_moment():
    model = make_sine_noise_model()
    return _result(diagnostics.variation_moment(model, GRID, [0.2], [1.0], 3,
                                                n_paths=N_PATHS, seed=8, threads=1))


def _martingale(sid, x0, v0):
    def run():
        model = make_sine_noise_model() if sid is None else sg.get_scenario(sid).make()
        rep = diagnostics.martingale_mean_check(model, GRID, x0, v0,
                                                n_paths=N_PATHS, seed=9, threads=1)
        return _pin(rep.empirical, rep.details["std_error"],
                    rep.details["second_moment_integral"])
    return run


def _variation_l2():
    sc, model = _scenario("sphere3")
    return _pin(diagnostics._variation_l2_integral(model, GRID, sc.x0, sc.v0,
                                                   n_paths=N_PATHS, seed=10,
                                                   threads=1))


def _exact_form(sid, codiff):
    def run():
        sc, model = _scenario(sid)
        resid, scales = diagnostics.exact_form_residuals(
            model, sc.observables["sin"], codiff, GRID, sc.x0,
            n_paths=N_PATHS, seed=11, threads=1)
        return _pin(np.sum(resid), np.sum(scales), resid.size)
    return run


def _constraint():
    sc, model = _scenario("sphere3")
    return _pin(diagnostics.constraint_violation(model, GRID, sc.x0,
                                                 n_paths=N_PATHS, seed=12, threads=1))


def _blow_up():
    sc, model = _scenario("bm1d")
    model.blow_up_radius = 1.0
    return _result(estimators.bel_gradient(model, sc.observables["sin"], GRID,
                                           [0.0], [1.0], n_paths=N_PATHS, seed=13,
                                           threads=1))


def _two_blocks():
    sc, model = _scenario("bm1d")
    n = sg.engine.default_block_size(GRID.n_steps, model.m) + N_PATHS
    return _result(estimators.bel_gradient(model, sc.observables["sin"], GRID,
                                           [0.0], [1.0], n_paths=n, seed=14,
                                           threads=2))


def _cases():
    with open(MANIFEST) as fh:
        rows = json.load(fh)
    cases = {f"row{i:02d}-{r['scenario']}-{r['estimator']}": _row_case(r)
             for i, r in enumerate(rows)}
    cases.update({
        "form_exterior_gradient-q1": _form_gradient_q1,
        "form_exterior_gradient-q2": _form_gradient_q2,
        "bel_hessian-weights-sphere3": _manifold_hessian,
        "bel_hessian-weights-sine": _flat_hessian("weights"),
        "bel_hessian-nested-sine": _flat_hessian("nested"),
        "bel_hessian-nested-two_blocks": _flat_hessian("nested", 16384 + N_PATHS, 2),
        "finite_difference-circle": _circle_finite_difference,
        "score_gradient-circle-gaussian": _circle_score,
        "potential_gradient-sphere3": _manifold_potential,
        "potential_gradient-time_coeffs": _time_coeffs_potential,
        "variation_moment": _variation_moment,
        "martingale_mean_check-flat": _martingale(None, [0.2], [1.0]),
        "martingale_mean_check-sphere3": _martingale("sphere3", [1.0, 0.0, 0.0],
                                                     [0.0, 0.0, 1.0]),
        "variation_l2_integral": _variation_l2,
        "exact_form_residuals-circle": _exact_form("circle", lambda x: x[..., 1]),
        "exact_form_residuals-bm1d": _exact_form("bm1d", lambda x: np.sin(x[..., 0])),
        "constraint_violation": _constraint,
        "blow_up": _blow_up,
        "two_blocks_two_workers": _two_blocks,
    })
    return cases


CASES = _cases()

GOLDEN = {
    'bel_hessian-nested-sine': ['-0x1.6c4523c55339bp-2', '0x1.b8777e4abf6f8p-5', 0],
    'bel_hessian-nested-two_blocks': ['-0x1.383249ea89cd9p-2', '0x1.293e5692ca26cp-7', 0],
    'bel_hessian-weights-sine': ['-0x1.598abaa7c72dep-2', '0x1.c94943932415bp-5', 0],
    'bel_hessian-weights-sphere3': ['-0x1.79d64b8f778a8p-4', '0x1.c0e8abda75abfp-4', 0],
    'blow_up': ['0x1.b5171e2f31781p-3', '0x1.d010072468dbdp-7', 278],
    'constraint_violation': ['0x1.4000000000000p-51'],
    'exact_form_residuals-bm1d': ['0x1.ef2b98b633a28p+4', '0x1.13eee0ca01998p+10', 512],
    'exact_form_residuals-circle': ['0x1.0010176f3db04p+5', '0x1.0000000000000p+10', 512],
    'finite_difference-circle': ['0x1.45472ed1839c4p-1', '0x1.6320a6c323b19p-5', 0],
    'form_exterior_gradient-q1': ['0x1.2aa7d50ef0920p-1', '0x1.16033ee9c10e8p-5', 0],
    'form_exterior_gradient-q2': ['-0x1.baa4cc5c382aep-5', '0x1.2db3fa19c4f8bp-5', 0],
    'martingale_mean_check-flat': ['-0x1.59d35ed8cb9b4p-7', '0x1.64b848cb22236p-5', '0x1.dcf8e2f281d87p-1'],
    'martingale_mean_check-sphere3': ['-0x1.b9e5b03b857a8p-8', '0x1.578c110a91e8ap-5', '0x1.f68a7bdf8c9c3p-1'],
    'potential_gradient-sphere3': ['0x1.9287da8ab6c3cp-2', '0x1.588ca9be6c334p-6', 0],
    'potential_gradient-time_coeffs': ['0x1.c6ede044c6a02p-2', '0x1.1bda1040081c3p-6', 0],
    'row00-bm1d-bel_gradient': ['0x1.345f8051afe30p-1', '0x1.a33f9db21db43p-6', 0],
    'row01-bm1d-bel_gradient': ['-0x1.48f86ca67bb4fp-5', '0x1.9366e0cbc394cp-6', 0],
    'row02-bm1d-pathwise_gradient': ['0x1.37387b364fea8p-1', '0x1.378d0090374fep-6', 0],
    'row03-bm1d-finite_difference': ['0x1.373877d013866p-1', '0x1.378cfd290e956p-6', 0],
    'row04-bm1d-bel_hessian_weights': ['-0x1.0374ca39bfa09p-1', '0x1.e224897ba7e33p-5', 0],
    'row05-bm1d-bel_hessian_nested': ['-0x1.0374ca39bfa09p-1', '0x1.e224897ba7e33p-5', 0],
    'row06-ou1d-bel_hessian_weights': ['0x1.a7cf835420665p-3', '0x1.5475a59847108p-5', 0],
    'row07-bm1d-potential_gradient': ['0x1.f46c65fb23e5fp-1', '0x1.4ef4f46af6c4dp-5', 0],
    'row08-bm1d-score_gradient': ['0x1.037fd9bb668d1p+0', '0x1.1ea4a3d19f063p-7', 0],
    'row09-sphere3-hessian_flow_gradient': ['0x1.30628d892ea52p-1', '0x1.f7f36878d2cd1p-6', 0],
    'row10-circle-one_form_semigroup': ['0x1.e1393dfc7d802p-1', '0x1.35eccd8ad695cp-4', 0],
    'row11-circle-one_form_semigroup': ['0x1.3ed2a7d3172bdp-1', '0x1.40d3e21efbce6p-5', 0],
    'row12-sphere3-q_form_semigroup': ['0x1.094568b2feb3ap+0', '0x1.6d3c072f00ba3p-4', 0],
    'row13-so3-lie_group_gradient': ['-0x1.5b4648ee12585p+0', '0x1.1fea404c431e3p-4', 0],
    'row14-ou1d-bel_gradient': ['0x1.7dfd7b14c7551p-2', '0x1.9fd0baa559158p-6', 0],
    'score_gradient-circle-gaussian': ['0x1.459a992771179p+0', '0x1.6067e158b1a63p-4', 0],
    'two_blocks_two_workers': ['0x1.37d910dd15661p-1', '0x1.25dbcd3be825dp-8', 0],
    'variation_l2_integral': ['0x1.f86d234977540p-1'],
    'variation_moment': ['0x1.24baa1661acb0p+0', '0x1.e5041b68e8ff1p-6', 0],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, monkeypatch):
    monkeypatch.setenv("SEMIGRAD_THREADS", "1")
    assert CASES[name]() == GOLDEN[name]


def test_every_case_pinned():
    assert sorted(GOLDEN) == sorted(CASES)
