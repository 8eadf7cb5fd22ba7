"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Every criterion prints exactly one line, ``ACCEPTANCE n [PASS|FAIL] name``,
then asserts it. Tolerances are pinned as module constants next to the
criterion that uses them; loosening one is a visible diff, not a drive-by.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` or ``-rA`` to
see the verdict lines for passing criteria too).
"""

import functools
import json

import numpy as np
import pytest

from seqscreen.cli import main as cli_main
from seqscreen.errors import IntegrabilityError
from seqscreen.model_core import (
    AdditiveNoiseKernel,
    GridSpec,
    ScreeningModel,
    TableSignal,
    conditional_mean,
    conditional_mean_derivative,
    make_kernel,
    make_signal,
)
from seqscreen.propositions import delta_diagnostic, verify_prop1, verify_prop2, verify_prop3
from seqscreen.regularity import check_assumption, gamma, hazard, regularity_report, virtual_value
from seqscreen.transforms import RELABELING_KINDS, make_relabeling, relabel

# criterion 1: conditional-mean slope against a central difference
C1_FD_STEP = 1e-3
C1_REL_TOL = 1e-5
C1_CLOSED_FORM_TOL = 1e-8
# criterion 2: expected ratio equals the mean slope for additive models
C2_ABS_TOL = 1e-7
# criterion 3: witness localization for the power kernel's A1 failure
C3_A1_EDGE = 1.0 / np.e
# criterion 4: relabeling invariances on matched grids
C4_TOL = 1e-8
C4_GRID = GridSpec(v_points=65, V_points=65)
# criterion 4 per kind: the verdicts of every kind on four models
C4_KIND_GRID = GridSpec(v_points=33, V_points=33)
C4_MODELS = ("logistic", "power", "tablesig", "beta-normal")
C4_AFFINE = {"slope": 1.5, "intercept": -0.25}
# beta(2, 2)'s inverse hazard is not integrable at v = 0
C4_UNBUILT = ("beta-normal", "inverse_hazard_integral")
# criterion 5: relabeled hazard profiles
C5_FLAT_TOL = 1e-6
C5_CLOSED_FORM_REL = 1e-6
# criterion 6: shifted-cdf derivative route agreement
C6_RESIDUAL_TOL = 1e-4
C6_BAD_FRACTION = 0.01
# criterion 9: the paper's third claim, additive noise of every scale on
# every builtin signal family
C9_GRID = ["--grid", "33x33"]
C9_SIGNALS = {"uniform": "family = uniform\nsupport = 0.0 1.0",
              "beta": "family = beta\nparams = alpha=2.0 beta=3.0",
              "table": "family = table\nparams = 0.0:1.0 0.5:2.0 1.0:0.5"}
C9_NOISES = ("normal", "logistic", "laplace")
C9_SCALES = (1.0, 0.1, 0.01, 0.001)
# where h and dH/dv underflow, A1 aborts (exit 2)
C9_ABORTED = {("normal", 0.01), ("normal", 0.001), ("logistic", 0.001),
              ("laplace", 0.001)}


def _report(criterion: int, name: str, parts):
    failed = [label for label, ok in parts if not ok]
    verdict = "PASS" if not failed else "FAIL"
    detail = "all sub-checks held" if not failed else "failed: " + ", ".join(failed)
    line = f"ACCEPTANCE {criterion} [{verdict}] {name}: {detail}"
    print(line)
    assert not failed, line


@pytest.fixture(scope="module")
def logistic_model():
    return ScreeningModel(make_signal("uniform", (0.0, 1.0)),
                          make_kernel("additive_noise", noise="logistic"))


@pytest.fixture(scope="module")
def power_model():
    return ScreeningModel(make_signal("uniform", (1.0, 2.0)),
                          make_kernel("power"))


@pytest.fixture(scope="module")
def tilt_model():
    return ScreeningModel(make_signal("uniform", (0.5, 2.0)),
                          make_kernel("exp_tilt"))


@pytest.fixture(scope="module")
def beta_normal_model():
    return ScreeningModel(make_signal("beta", alpha=2.0, beta=2.0),
                          make_kernel("additive_noise", noise="normal"))


def test_criterion_1_mean_slope_cross_check(logistic_model, power_model):
    parts = []
    for label, model in (("logistic", logistic_model), ("power", power_model)):
        lo, hi = model.signal.support.as_tuple()
        span = hi - lo
        ok = True
        for v in np.linspace(lo + 0.05 * span, hi - 0.05 * span, 20):
            v = float(v)
            fd = (conditional_mean(model, v + C1_FD_STEP)
                  - conditional_mean(model, v - C1_FD_STEP)) / (2 * C1_FD_STEP)
            deriv = conditional_mean_derivative(model, v)
            if abs(fd - deriv) / max(1.0, abs(deriv)) > C1_REL_TOL:
                ok = False
        parts.append((f"fd-agreement-{label}", ok))
    parts.append(("power-mean-closed-form",
                  abs(conditional_mean(power_model, 1.0) - 0.5)
                  <= C1_CLOSED_FORM_TOL))
    parts.append(("power-slope-closed-form",
                  abs(conditional_mean_derivative(power_model, 1.0) - 0.25)
                  <= C1_CLOSED_FORM_TOL))
    _report(1, "conditional-mean slope matches finite differences", parts)


def test_criterion_2_expected_ratio_is_mean_slope(logistic_model):
    # for an additive kernel the ratio is identically 1, so the expected
    # ratio E[gamma | v], which equals the conditional-mean slope by the
    # layer-cake identity, must be 1 at every grid signal
    worst = 0.0
    for v in logistic_model.signal_grid():
        dev = abs(conditional_mean_derivative(logistic_model, float(v)) - 1.0)
        worst = max(worst, dev)
    _report(2, "expected ratio equals the conditional-mean slope",
            [(f"max-deviation-{worst:.2e}", worst <= C2_ABS_TOL)])


def test_criterion_3_regularity_verdicts(logistic_model, power_model):
    parts = []
    rep = regularity_report(logistic_model)
    for code in ("A0", "A1", "A2", "FOSD", "PSI"):
        parts.append((f"logistic-{code}", rep.checks[code].passed))
    parts.append(("logistic-classic", rep.classic_regular))
    parts.append(("logistic-psi", rep.psi_regular))

    prep = regularity_report(power_model)
    parts.append(("power-A1-fails", not prep.checks["A1"].passed))
    parts.append(("power-A2-holds", prep.checks["A2"].passed))
    parts.append(("power-not-classic", not prep.classic_regular))
    # every A1 witness sits below the analytic edge 1/e, up to grid pitch
    Vs = power_model.value_grid()
    pitch = float(Vs[1] - Vs[0])
    edge = C3_A1_EDGE + 2 * pitch
    parts.append(("power-A1-witnesses-localized",
                  all(w["V_lo"] < edge
                      for w in prep.checks["A1"].witnesses)))
    _report(3, "regularity checks split the canonical models", parts)


def test_criterion_4_relabeling_invariances(logistic_model, power_model,
                                            beta_normal_model):
    models = (("logistic", logistic_model), ("power", power_model),
              ("beta-normal", beta_normal_model))
    kinds = ("affine", "integrated_hazard", "mean")
    parts = []
    probe = GridSpec(v_points=9, V_points=9)
    for mlabel, model in models:
        pre = check_assumption(model, "A1", C4_GRID)
        vs = model.signal_grid(probe)
        Vs = model.value_grid(probe)
        for kind in kinds:
            if kind == "affine":
                tm = relabel(model, kind, slope=1.5, intercept=-0.25)
            else:
                tm = relabel(model, kind)
            post = check_assumption(tm, "A1", C4_GRID)
            verdict_ok = pre.passed == post.passed
            ident_ok = True
            for v in vs:
                v = float(v)
                w = tm.relabeling.phi(v)
                p = tm.relabeling.phi_prime(v)
                for V in Vs:
                    V = float(V)
                    if abs(virtual_value(tm, w, V)
                           - virtual_value(model, v, V)) > C4_TOL:
                        ident_ok = False
                    if abs(gamma(tm, w, V) * p
                           - gamma(model, v, V)) > C4_TOL:
                        ident_ok = False
            parts.append((f"{mlabel}-{kind}-verdict", verdict_ok))
            parts.append((f"{mlabel}-{kind}-identities", ident_ok))
    _report(4, "relabelings preserve the virtual value and the A1 verdict",
            parts)


@pytest.fixture(scope="module")
def c4_checks(logistic_model, power_model, beta_normal_model):
    """``checks(label, kind)``: each check's ``passed`` flag on a model of
    ``C4_MODELS``, or on its relabeling of ``kind``, at ``C4_KIND_GRID``."""
    tablesig = ScreeningModel(
        TableSignal([0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                    [3.0, 1.2, 0.7, 0.55, 0.8, 1.6]),
        AdditiveNoiseKernel(noise="logistic"))
    models = dict(zip(C4_MODELS, (logistic_model, power_model, tablesig,
                                  beta_normal_model)))

    @functools.cache
    def checks(label, kind=None):
        model = models[label]
        if kind is not None:
            model = relabel(model, kind,
                            **(C4_AFFINE if kind == "affine" else {}))
        rep = regularity_report(model, C4_KIND_GRID)
        return {code: c.passed for code, c in rep.checks.items()}

    return checks


@pytest.mark.parametrize("label, kind, code", [
    pytest.param(label, kind, code, marks=pytest.mark.xfail(
        strict=True, reason="FOSD's margin slack * h does not scale with "
        "phi' (ROADMAP: a relabeling changes verdicts that it should not)"))
    if (label, kind, code) == ("power", "integrated_hazard", "FOSD")
    else (label, kind, code)
    for label in C4_MODELS for kind in RELABELING_KINDS
    for code in ("A1", "FOSD", "PSI") if (label, kind) != C4_UNBUILT])
def test_criterion_4_relabeling_keeps_a1_fosd_psi(c4_checks, label, kind,
                                                  code):
    assert c4_checks(label, kind)[code] == c4_checks(label)[code]


def test_criterion_4_relabeling_moves_a0_or_a2(c4_checks, beta_normal_model):
    """Regularity is not invariant to relabeling the signal: A0 or A2
    moves on at least one model and kind."""
    with pytest.raises(IntegrabilityError):
        make_relabeling(beta_normal_model, C4_UNBUILT[1])
    moved = [(label, kind) for label in C4_MODELS
             for kind in RELABELING_KINDS if (label, kind) != C4_UNBUILT
             and any(c4_checks(label, kind)[code] != c4_checks(label)[code]
                     for code in ("A0", "A2"))]
    assert moved


def test_criterion_5_hazard_relabelings(logistic_model):
    parts = []
    grid = GridSpec()
    vs = logistic_model.signal_grid(grid)

    tm_flat = relabel(logistic_model, "integrated_hazard")
    flat_dev = 0.0
    for v in vs:
        v = float(v)
        if logistic_model.signal.cdf(v) >= 1.0 - 1e-6:
            continue
        hz, _ = hazard(tm_flat, tm_flat.relabeling.phi(v))
        flat_dev = max(flat_dev, abs(hz - 1.0))
    parts.append((f"integrated-hazard-flat-{flat_dev:.2e}",
                  flat_dev <= C5_FLAT_TOL))

    tm_ihi = relabel(logistic_model, "inverse_hazard_integral")
    ihi_dev = 0.0
    for v in vs:
        v = float(v)
        if logistic_model.signal.cdf(v) >= 1.0 - 1e-6:
            continue
        w = tm_ihi.relabeling.phi(v)
        hz, _ = hazard(tm_ihi, w)
        want = 1.0 / (1.0 - 2.0 * w)
        ihi_dev = max(ihi_dev, abs(hz - want) / abs(want))
    parts.append((f"ihi-closed-form-{ihi_dev:.2e}",
                  ihi_dev <= C5_CLOSED_FORM_REL))

    rep = verify_prop1(logistic_model)
    parts.append(("constant-claim-flagged", rep.verdict == "discrepancy"))
    parts.append(("a0-still-achievable",
                  rep.conclusion_checks["a0_achievable"]["passed"]))

    dechaz = ScreeningModel(
        TableSignal([0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                    [3.0, 1.2, 0.7, 0.55, 0.8, 1.6]),
        AdditiveNoiseKernel("logistic"))
    parts.append(("base-A0-fails",
                  not check_assumption(dechaz, "A0").passed))
    tm_rm = relabel(dechaz, "runningmax_hazard")
    parts.append(("runningmax-restores-A0",
                  check_assumption(tm_rm, "A0").passed))
    _report(5, "hazard relabelings measured against their advertised profiles",
            parts)


def test_criterion_6_bounded_support_suite(logistic_model, power_model,
                                           tilt_model):
    parts = []
    for label, model in (("power", power_model), ("exp-tilt", tilt_model)):
        rep = verify_prop2(model)
        parts.append((f"{label}-consistent", rep.verdict == "consistent"))
        c = rep.conclusion_checks["a1_a2_not_both"]
        parts.append((f"{label}-a1-a2-not-both", c["passed"]))
        field = delta_diagnostic(model, n_v=33, n_offsets=33)
        frac_ok = (field.n_evaluable > 200 and
                   field.n_residual_bad
                   <= C6_BAD_FRACTION * field.n_evaluable)
        parts.append((f"{label}-delta-routes-agree", frac_ok))
        parts.append((f"{label}-worst-residual-{field.max_residual:.2e}",
                      field.max_residual <= C6_RESIDUAL_TOL))
    parts.append(("unbounded-not-applicable",
                  verify_prop2(logistic_model).verdict == "not-applicable"))
    _report(6, "finite lower value endpoint breaks A1 + A2", parts)


def test_criterion_7_additive_structure_suite(power_model):
    parts = []
    for noise in ("normal", "logistic", "laplace"):
        model = ScreeningModel(make_signal("uniform", (0.0, 1.0)),
                               make_kernel("additive_noise", noise=noise))
        fwd = verify_prop3(model, "forward")
        conv = verify_prop3(model, "converse")
        parts.append((f"{noise}-forward", fwd.verdict == "consistent"))
        parts.append((f"{noise}-converse", conv.verdict == "consistent"))
    tm = relabel(power_model, "mean")
    rep = verify_prop3(tm, "forward")
    parts.append(("mean-relabeled-power-hypothesis-failed",
                  rep.verdict == "hypothesis-failed"))
    parts.append(("mean-normalization-itself-held",
                  rep.hypothesis_checks["mean_normalized"]["passed"]))
    _report(7, "additive translation structure suite", parts)


def test_criterion_8_deterministic_outputs(tmp_path, capsys):
    modelfile = tmp_path / "m.model"
    modelfile.write_text(
        "[signal]\nfamily = uniform\nsupport = 0.0 1.0\n\n"
        "[kernel]\nfamily = additive_noise\nnoise.family = logistic\n")

    def capture(*argv):
        rc = cli_main(list(argv))
        return rc, capsys.readouterr().out

    rc1, check1 = capture("check", str(modelfile))
    rc2, check2 = capture("check", str(modelfile))
    rcg1, grid1 = capture("grid", str(modelfile), "--what", "psi",
                          "--grid", "9x9")
    rcg2, grid2 = capture("grid", str(modelfile), "--what", "psi",
                          "--grid", "9x9")
    parts = [
        ("check-exit-codes", rc1 == 0 and rc2 == 0),
        ("check-bytes-identical", check1 == check2),
        ("check-is-json", bool(json.loads(check1))),
        ("grid-exit-codes", rcg1 == 0 and rcg2 == 0),
        ("grid-bytes-identical", grid1 == grid2),
        ("grid-shape", len(grid1.splitlines()) == 82),
    ]
    _report(8, "command outputs are byte-deterministic", parts)


@pytest.mark.parametrize("signal, noise, scale", [
    pytest.param(signal, noise, scale, marks=pytest.mark.xfail(
        strict=True, reason="A1 aborts where narrow noise underflows h "
        "(ROADMAP known defect: narrow additive noise exits 2)"))
    if (noise, scale) in C9_ABORTED else (signal, noise, scale)
    for signal in C9_SIGNALS for noise in C9_NOISES for scale in C9_SCALES])
def test_criterion_9_additive_noise_meets_the_third_claim(
        signal, noise, scale, tmp_path, capsys):
    """Value = signal + independent noise: A1 and A2 hold, and suite 3
    reads consistent both ways."""
    path = tmp_path / "m.model"
    path.write_text(f"[signal]\n{C9_SIGNALS[signal]}\n\n[kernel]\n"
                    f"family = additive_noise\nnoise.family = {noise}\n"
                    f"noise.scale = {scale!r}\n")

    def report(*argv):
        rc = cli_main([*argv, str(path), *C9_GRID])
        out = capsys.readouterr().out
        return rc, json.loads(out) if rc != 2 else {}

    rc_check, checks = report("check")
    rc_prop3, prop3 = report("verify", "--prop", "3")
    parts = [("check-verdict", rc_check != 2),
             ("prop3-verdict", rc_prop3 != 2)]
    if checks:
        parts += [(code, checks["checks"][code]["passed"])
                  for code in ("A1", "A2")]
    if prop3:
        parts += [(f"prop3-{way}", prop3[way]["verdict"] == "consistent")
                  for way in ("forward", "converse")]
    _report(9, f"third claim on {signal} + {noise}({scale})", parts)
