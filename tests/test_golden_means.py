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
from semigrad.models import PotentialField, TimeDependentCoefficients, skew_from_axis

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
                                                n_paths=N_PATHS, seed=3))


def _form_gradient_q2():
    sc, model = _scenario("sphere3")
    form = forms.exact_one_form(sc.observables["sin"])
    return _result(forms.form_exterior_gradient(model, form, GRID, sc.x0,
                                                (sc.u0, sc.v0), n_paths=N_PATHS,
                                                seed=4))


def _manifold_hessian():
    sc, model = _scenario("sphere3")
    return _result(estimators.bel_hessian(model, sc.observables["height"], GRID,
                                          sc.x0, sc.u0, sc.v0, variant="weights",
                                          n_paths=N_PATHS, seed=5))


def _flat_hessian(variant, n_paths=N_PATHS):
    def run():
        model = make_sine_noise_model()
        return _result(estimators.bel_hessian(model, lambda x: np.sin(x[..., 0]), GRID,
                                              [0.3], [1.0], [1.0], variant=variant,
                                              n_paths=n_paths, seed=15, n_inner=3))
    return run


def _circle_finite_difference():
    sc, model = _scenario("circle")
    return _result(diagnostics.finite_difference_oracle(
        model, sc.observables["sin"], GRID, sc.x0, sc.v0, delta=1e-2,
        n_paths=N_PATHS, seed=16))


def _circle_score():
    sc, model = _scenario("circle")
    bins = estimators.ConditionalBinSpec(target=np.array([0.0, 1.0]), bandwidth=0.5,
                                         kernel="gaussian")
    return _result(estimators.score_gradient(model, GRID, sc.x0, sc.v0, bins,
                                             n_paths=N_PATHS, seed=17))


def _manifold_potential():
    sc, model = _scenario("sphere3")
    V = PotentialField(V=lambda t, x: 0.3 * x[..., 2] + 0.1 * t,
                       dV=lambda t, x: np.broadcast_to([0.0, 0.0, 0.3], x.shape),
                       upper_bound=0.4)
    return _result(estimators.potential_gradient(model, sc.observables["height"], V,
                                                 GRID, sc.x0, sc.v0,
                                                 n_paths=N_PATHS, seed=6))


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
                                                 n_paths=N_PATHS, seed=7,
                                                 time_coeffs=tc))


def _variation_moment():
    model = make_sine_noise_model()
    return _result(diagnostics.variation_moment(model, GRID, [0.2], [1.0], 3,
                                                n_paths=N_PATHS, seed=8))


def _martingale(sid, x0, v0):
    def run():
        model = make_sine_noise_model() if sid is None else sg.get_scenario(sid).make()
        rep = diagnostics.martingale_mean_check(model, GRID, x0, v0,
                                                n_paths=N_PATHS, seed=9)
        return _pin(rep.empirical, rep.details["std_error"],
                    rep.details["second_moment_integral"])
    return run


def _variation_l2():
    sc, model = _scenario("sphere3")
    return _pin(diagnostics._variation_l2_integral(model, GRID, sc.x0, sc.v0,
                                                   n_paths=N_PATHS, seed=10))


def _exact_form(sid, codiff):
    def run():
        sc, model = _scenario(sid)
        resid, scales = diagnostics.exact_form_residuals(
            model, sc.observables["sin"], codiff, GRID, sc.x0,
            n_paths=N_PATHS, seed=11)
        return _pin(np.sum(resid), np.sum(scales), resid.size)
    return run


def _constraint():
    sc, model = _scenario("sphere3")
    return _pin(diagnostics.constraint_violation(model, GRID, sc.x0,
                                                 n_paths=N_PATHS, seed=12))


def _blow_up():
    sc, model = _scenario("bm1d")
    model.blow_up_radius = 1.0
    return _result(estimators.bel_gradient(model, sc.observables["sin"], GRID,
                                           [0.0], [1.0], n_paths=N_PATHS, seed=13))


def _two_blocks():
    sc, model = _scenario("bm1d")
    n = sg.engine.default_block_size(GRID.n_steps, model.m) + N_PATHS
    return _result(estimators.bel_gradient(model, sc.observables["sin"], GRID,
                                           [0.0], [1.0], n_paths=n, seed=14))


def _workers(n, run):
    """``run`` at n workers; ``test_golden`` runs every other case at one."""
    def at_n():
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("SEMIGRAD_THREADS", str(n))
            return run()
    return at_n


def _so3(run_case):
    # trace_e1 at the identity, in the flattened skew direction of the axis e1
    def run():
        sc, model = _scenario("so3")
        return run_case(model, sc.observables["trace_e1"], sc.x0,
                        skew_from_axis(sc.v0).reshape(-1))
    return run


def _so3_martingale(model, f, g0, v):
    rep = diagnostics.martingale_mean_check(model, GRID, g0, v, n_paths=N_PATHS, seed=20)
    return _pin(rep.empirical, rep.details["std_error"],
                rep.details["second_moment_integral"])


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
        "bel_hessian-nested-two_blocks": _workers(2, _flat_hessian("nested", 16384 + N_PATHS)),
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
        "two_blocks_two_workers": _workers(2, _two_blocks),
        "so3-bel_gradient": _so3(lambda model, f, g0, v: _result(estimators.bel_gradient(
            model, f, GRID, g0, v, n_paths=N_PATHS, seed=18))),
        "so3-finite_difference": _so3(lambda model, f, g0, v: _result(
            diagnostics.finite_difference_oracle(model, f, GRID, g0, v, delta=1e-2,
                                                 n_paths=N_PATHS, seed=19))),
        "so3-martingale_mean_check": _so3(_so3_martingale),
        "so3-hessian_flow_gradient": _so3(lambda model, f, g0, v: _result(
            estimators.hessian_flow_gradient(model, f, GRID, g0, v, n_paths=N_PATHS,
                                             seed=21))),
    })
    return cases


CASES = _cases()

GOLDEN = {
    'bel_hessian-nested-sine': ['-0x1.240645dd98e4ap-2', '0x1.c50fbc31f67dcp-5', 0],
    'bel_hessian-nested-two_blocks': ['-0x1.1f0ae43789374p-2', '0x1.2edcb6c80a6b8p-7', 0],
    'bel_hessian-weights-sine': ['-0x1.29dcc56684dd8p-2', '0x1.d58843aa9cd5bp-5', 0],
    'bel_hessian-weights-sphere3': ['0x1.c078b4e87aff8p-7', '0x1.e9018a6ae81a1p-5', 0],
    'blow_up': ['0x1.ce001c9e98e09p-3', '0x1.e15b1a6a2f339p-7', 256],
    'constraint_violation': ['0x1.4000000000000p-51'],
    'exact_form_residuals-bm1d': ['0x1.0274ae66f91ebp+5', '0x1.1360c93a548e7p+10', 512],
    'exact_form_residuals-circle': ['0x1.fc4ca450a9f3bp+4', '0x1.0000000000000p+10', 512],
    'finite_difference-circle': ['0x1.386c1abd80f0ap-1', '0x1.4e92680a4b856p-5', 0],
    'form_exterior_gradient-q1': ['0x1.43cc2cf00129fp-1', '0x1.3c29a655dcd18p-5', 0],
    'form_exterior_gradient-q2': ['-0x1.4f0a2851808bbp-6', '0x1.845fccaf7143cp-5', 0],
    'martingale_mean_check-flat': ['-0x1.c042a86ac9e0ap-6', '0x1.763c872969976p-5', '0x1.dd68b64b29032p-1'],
    'martingale_mean_check-sphere3': ['-0x1.66143bcb63455p-5', '0x1.77dfcc4802038p-5', '0x1.f73d8e8bd3042p-1'],
    'potential_gradient-sphere3': ['0x1.aeebb3003d13ep-2', '0x1.58090efc94133p-6', 0],
    'potential_gradient-time_coeffs': ['0x1.99d78dec255e8p-2', '0x1.1a5054b4eb917p-6', 0],
    'row00-bm1d-bel_gradient': ['0x1.25f8521e7df7cp-1', '0x1.8d9121dc60529p-6', 0],
    'row01-bm1d-bel_gradient': ['-0x1.b8976b776196bp-6', '0x1.b5a791f1f6b8bp-6', 0],
    'row02-bm1d-pathwise_gradient': ['0x1.2bd3f60afe830p-1', '0x1.550df05f254dcp-6', 0],
    'row03-bm1d-finite_difference': ['0x1.2bd3f2c49d4c4p-1', '0x1.550deca57d0b2p-6', 0],
    'row04-bm1d-bel_hessian_weights': ['-0x1.6dd75e15e3db7p-1', '0x1.34bd75e15113ap-4', 0],
    'row05-bm1d-bel_hessian_nested': ['-0x1.6dd75e15e3db7p-1', '0x1.34bd75e15113ap-4', 0],
    'row06-ou1d-bel_hessian_weights': ['0x1.fc649e2f92b74p-3', '0x1.0e353878021b5p-4', 0],
    'row07-bm1d-potential_gradient': ['0x1.15d899775b333p+0', '0x1.609b64d3ba744p-5', 0],
    'row08-bm1d-score_gradient': ['0x1.fc62a97b687d5p-1', '0x1.0247ae9a3aefap-7', 0],
    'row09-sphere3-hessian_flow_gradient': ['0x1.396c273804ed3p-1', '0x1.f870dbe26cdb8p-6', 0],
    'row10-circle-one_form_semigroup': ['0x1.0cfa0b16c3dfap+0', '0x1.94399ef4ecdecp-4', 0],
    'row11-circle-one_form_semigroup': ['0x1.3607f53a4b6a0p-1', '0x1.763849db5dbf9p-5', 0],
    'row12-sphere3-q_form_semigroup': ['0x1.e1add97ce0636p-1', '0x1.6e00144e7a268p-4', 0],
    'row13-so3-lie_group_gradient': ['-0x1.28b5c4d0212a4p+0', '0x1.0230f807c0c6dp-4', 0],
    'row14-ou1d-bel_gradient': ['0x1.92aa21a4e0d1dp-2', '0x1.bc6af48e026f4p-6', 0],
    'so3-bel_gradient': ['-0x1.7bf79ea37b939p-1', '0x1.4b0dc38cf6d71p-5', 0],
    'so3-finite_difference': ['-0x1.82ec96fa5b210p-1', '0x1.23afab9c9cf47p-5', 0],
    'so3-hessian_flow_gradient': ['-0x1.7b8b14174f050p-1', '0x1.298b165f426bep-5', 0],
    'so3-martingale_mean_check': ['-0x1.1b5fc7137c200p-11', '0x1.6efbad87ac6eap-5', '0x1.043597701fab0p+0'],
    'score_gradient-circle-gaussian': ['0x1.1be509ba376b9p+0', '0x1.079713652819ap-4', 0],
    'two_blocks_two_workers': ['0x1.374465d134046p-1', '0x1.242f669a75665p-8', 0],
    'variation_l2_integral': ['0x1.f2cb4092e21cfp-1'],
    'variation_moment': ['0x1.227334dae4328p+0', '0x1.d9f4ccd53e773p-6', 0],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, monkeypatch):
    monkeypatch.setenv("SEMIGRAD_THREADS", "1")
    assert CASES[name]() == GOLDEN[name]


def test_every_case_pinned():
    assert sorted(GOLDEN) == sorted(CASES)
