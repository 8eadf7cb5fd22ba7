"""Command-line behavior: exit codes, output shapes, determinism.

Exit-code contract under test: 0 success, 1 negative finding (failed
regularity, discrepancy verdict, unbuildable relabeling), 2 unusable input.
"""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import seqscreen
from seqscreen import cli, model_core, transforms
from seqscreen.cli import main
from seqscreen.errors import DomainError
from seqscreen.model_core import PowerKernel
from seqscreen.modelfile import load, loads
from seqscreen.regularity import compute_field
from seqscreen.transforms import TransformedModel

LOGISTIC = """\
[signal]
family = uniform
support = 0.0 1.0

[kernel]
family = additive_noise
noise.family = logistic
"""

POWER = """\
[signal]
family = uniform
support = 1.0 2.0

[kernel]
family = power
"""

DECREASING_HAZARD = """\
[signal]
family = table
params = 0.0:3.0 0.2:1.2 0.4:0.7 0.6:0.55 0.8:0.8 1.0:1.6

[kernel]
family = additive_noise
noise.family = logistic
"""

BETA_NORMAL = """\
[signal]
family = beta
params = alpha=2.0 beta=2.0

[kernel]
family = additive_noise
noise.family = normal
"""

BETA_LOGISTIC = BETA_NORMAL.replace("normal", "logistic")

# The value density underflows far from the diagonal, so gamma and psi
# hold NaN at two corners of a 3x4 lattice.
THIN_LAPLACE = """\
[signal]
family = uniform
support = 0.0 1.0

[kernel]
family = additive_noise
noise.family = laplace
noise.scale = 0.001
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for name, text in [("logistic", LOGISTIC), ("power", POWER),
                       ("dechaz", DECREASING_HAZARD),
                       ("beta", BETA_NORMAL),
                       ("beta_logistic", BETA_LOGISTIC),
                       ("thin", THIN_LAPLACE)]:
        p = root / f"{name}.model"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_one_error_line(err: str, needle: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("seqscreen: error: "), err
    assert needle in lines[0], err


def _stencil_failure(monkeypatch, exc_type):
    """Power models load with a subclass of the power kernel without its
    analytic slope, so the lattice and suite 3's conditional-mean slope
    differentiate its cdf, and a cdf that raises just above the top of the
    signal window, where only a difference stencil reaches."""

    class Failing(PowerKernel):
        def cdf(self, v, V):
            if v > 1.99991:
                raise exc_type(f"signal {v!r} beyond the window")
            return super().cdf(v, V)

        def cdf_dv(self, v, V):
            return None

    monkeypatch.setattr(model_core, "PowerKernel", Failing)


class TestCheck:
    def test_regular_model_exits_zero(self, files, capsys):
        rc, out, err = run(capsys, "check", files["logistic"])
        assert rc == 0
        rep = json.loads(out)
        assert rep["classic_regular"] and rep["psi_regular"]
        assert rep["fosd_ok"]
        assert err == ""

    def test_failing_model_exits_one(self, files, capsys):
        rc, out, _ = run(capsys, "check", files["power"])
        assert rc == 1
        rep = json.loads(out)
        assert not rep["checks"]["A1"]["passed"]
        assert rep["checks"]["A2"]["passed"]

    def test_slack_override_flips_verdict(self, files, capsys):
        rc_tight, out_tight, _ = run(capsys, "check", files["dechaz"])
        rc_loose, out_loose, _ = run(capsys, "check", files["dechaz"],
                                     "--slack", "0.5")
        assert rc_tight == 1 and rc_loose == 0
        assert not json.loads(out_tight)["checks"]["A0"]["passed"]
        rep = json.loads(out_loose)
        assert rep["checks"]["A0"]["passed"]
        assert rep["provenance"]["tolerances"]["monotonicity_slack"] == 0.5

    @pytest.mark.parametrize("slack", ["nan", "inf", "0", "-1"])
    def test_slack_must_be_positive_and_finite(self, files, capsys, slack):
        # A NaN slack passed A1 on the power model vacuously and an
        # infinite one failed FOSD everywhere; both are unusable input.
        rc, out, err = run(capsys, "check", files["power"], "--grid", "17x17",
                           "--slack", slack)
        assert rc == 2 and out == ""
        assert_one_error_line(err, "monotonicity_slack must be")

    @pytest.mark.parametrize("line", ["monotonicity = nan",
                                      "monotonicity = inf",
                                      "quadrature_rel = nan",
                                      "quadrature_rel = inf"])
    def test_file_tolerances_must_be_positive_and_finite(self, tmp_path,
                                                         capsys, line):
        path = tmp_path / "tol.model"
        path.write_text(POWER + f"\n[tolerances]\n{line}\n")
        rc, out, err = run(capsys, "check", str(path), "--grid", "17x17")
        assert rc == 2 and out == ""
        assert_one_error_line(err, "must be strictly positive and finite")

    @pytest.mark.parametrize("alpha", ["inf", "nan", "1e308"])
    def test_beta_shapes_must_be_finite(self, tmp_path, capsys, alpha):
        path = tmp_path / "beta.model"
        path.write_text(BETA_LOGISTIC.replace("alpha=2.0", f"alpha={alpha}"))
        rc, out, err = run(capsys, "check", str(path), "--grid", "17x17")
        assert rc == 2 and out == ""
        assert_one_error_line(err, "beta shape")

    def test_grid_override_recorded(self, files, capsys):
        rc, out, _ = run(capsys, "check", files["logistic"],
                         "--grid", "17x33")
        assert rc == 0
        prov = json.loads(out)["provenance"]["grid"]
        assert prov["v_points"] == 17 and prov["V_points"] == 33

    @pytest.mark.parametrize("shapes", ["alpha=0.5 beta=2.0",
                                        "alpha=3.0 beta=0.5"])
    def test_endpoint_singular_beta_gets_a_verdict(self, tmp_path, capsys,
                                                   shapes):
        # The beta density is unbounded at one support endpoint; validation
        # takes the signal mass over the grid window, so check reaches a
        # verdict instead of exiting 2.
        path = tmp_path / "beta.model"
        path.write_text(BETA_NORMAL.replace("alpha=2.0 beta=2.0", shapes)
                        .replace("noise.family = normal",
                                 "noise.family = logistic"))
        rc, out, err = run(capsys, "check", str(path))
        assert rc in (0, 1)
        assert set(json.loads(out)["checks"]) == {"A0", "A1", "A2", "FOSD",
                                                  "PSI"}
        assert "Traceback" not in err

    def test_mean_derived_model_is_validated_without_bisection(
            self, files, tmp_path, capsys, monkeypatch):
        # validation samples a derived model's kernel on its base axis, so
        # no signal off the relabeling's caches has to be inverted
        derived = tmp_path / "mean.model"
        rc, _, _ = run(capsys, "transform", files["logistic"], "--kind",
                       "mean", "--out", str(derived))
        assert rc == 0
        calls = []
        original = transforms.Relabeling._bisect

        def counted(rel, ws):
            calls.extend(ws[np.isfinite(ws)].tolist())
            return original(rel, ws)

        monkeypatch.setattr(transforms.Relabeling, "_bisect", counted)
        rc, out, _ = run(capsys, "check", str(derived), "--grid", "33x33")
        assert rc in (0, 1)
        assert json.loads(out)["checks"]["A0"]["passed"]
        assert calls == []

    def test_missing_file_exits_two(self, files, capsys):
        rc, out, err = run(capsys, "check", files["logistic"] + ".nope")
        assert rc == 2
        assert out == ""
        assert "cannot read" in err

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("[signal]\nfamily = uniform\nsupprt = 0 1\n")
        rc, out, err = run(capsys, "check", str(bad))
        assert rc == 2
        assert "supprt" in err

    def test_out_writes_file(self, files, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc, out, _ = run(capsys, "check", files["logistic"],
                         "--out", str(target))
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["fosd_ok"]

    def test_unwritable_out_exits_two(self, files, tmp_path, capsys):
        rc, _, err = run(capsys, "check", files["logistic"],
                         "--out", str(tmp_path / "no" / "dir.json"))
        assert rc == 2
        assert "cannot write" in err

    def test_non_numeric_error_in_stencil_propagates(self, files, capsys,
                                                     monkeypatch):
        class Interrupted(RuntimeError):
            pass

        _stencil_failure(monkeypatch, Interrupted)
        with pytest.raises(Interrupted):
            main(["check", files["power"]])


class TestVerify:
    def test_prop1_uniform_flags_discrepancy(self, files, capsys):
        rc, out, _ = run(capsys, "verify", files["logistic"], "--prop", "1")
        assert rc == 1
        assert json.loads(out)["verdict"] == "discrepancy"

    def test_prop1_nonintegrable_exits_zero(self, files, capsys):
        rc, out, _ = run(capsys, "verify", files["beta"], "--prop", "1")
        assert rc == 0
        assert json.loads(out)["verdict"] == "hypothesis-failed"

    def test_prop2_power_consistent(self, files, capsys):
        rc, out, _ = run(capsys, "verify", files["power"], "--prop", "2")
        assert rc == 0
        assert json.loads(out)["verdict"] == "consistent"

    def test_prop2_unbounded_not_applicable(self, files, capsys):
        rc, out, _ = run(capsys, "verify", files["logistic"], "--prop", "2")
        assert rc == 0
        assert json.loads(out)["verdict"] == "not-applicable"

    def test_prop3_reports_both_directions(self, files, capsys):
        rc, out, _ = run(capsys, "verify", files["logistic"], "--prop", "3")
        assert rc == 0
        rep = json.loads(out)
        assert rep["forward"]["verdict"] == "consistent"
        assert rep["converse"]["verdict"] == "consistent"

    def test_domain_error_in_stencil_exits_two(self, files, capsys,
                                               monkeypatch):
        _stencil_failure(monkeypatch, DomainError)
        rc, out, err = run(capsys, "verify", files["power"], "--prop", "3")
        assert rc == 2 and out == ""
        assert err.startswith(
            "seqscreen: error: stencil evaluation failed at x=")
        assert err.count("\n") == 1

    def test_unbounded_density_fails_runningmax_build(self, tmp_path,
                                                     capsys):
        # beta(0.5, 2) has an unbounded density at v = 0, the first node of
        # the running maximum of its hazard: that relabeling is not built,
        # so transform exits 1 naming v, and suite 1 records the kind as
        # failed and still gives a verdict
        path = tmp_path / "beta0502.model"
        path.write_text(BETA_NORMAL.replace("alpha=2.0 beta=2.0",
                                            "alpha=0.5 beta=2.0"))
        rc, out, err = run(capsys, "transform", str(path), "--kind",
                           "runningmax_hazard")
        assert rc == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("seqscreen: error: runningmax_hazard: ")
        assert err.count("\n") == 1
        assert "v=0.0" in err
        rc, out, err = run(capsys, "verify", str(path), "--prop", "1")
        assert rc == 1
        assert err == ""
        rep = json.loads(out)
        assert rep["verdict"] == "discrepancy"
        a0 = rep["conclusion_checks"]["a0_achievable"]
        assert a0["by_kind"]["runningmax_hazard"] is False
        profile = rep["evidence"]["relabeled_hazard_profiles"][
            "runningmax_hazard"]
        assert profile["built"] is False
        assert "v=0.0" in profile["detail"]

    @pytest.mark.parametrize("kind", ["integrated_hazard",
                                      "inverse_hazard_integral"])
    def test_unbounded_density_fails_the_slope_table(self, tmp_path, capsys,
                                                     kind):
        # beta(0.5, 2): these kinds are built (suite 1 reads them), but the
        # file's slope at v = 0 divides by the unbounded density, so the
        # relabeling cannot be written and transform exits 1, as for
        # runningmax_hazard
        path = tmp_path / "beta0502.model"
        path.write_text(BETA_LOGISTIC.replace("alpha=2.0 beta=2.0",
                                              "alpha=0.5 beta=2.0"))
        model, _, _ = load(str(path))
        transforms.relabel(model, kind)
        derived = tmp_path / "derived.model"
        rc, out, err = run(capsys, "transform", str(path), "--kind", kind,
                           "--out", str(derived))
        assert rc == 1 and out == ""
        assert not derived.exists()
        assert err == (f"seqscreen: error: {kind}: beta density unbounded "
                       "at the support endpoint v=0.0\n")

    def test_prop_flag_required(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", files["logistic"]])
        assert exc.value.code == 2


class TestReportKeys:
    """Reports serialize their dataclass fields in declaration order, so
    these literal lists pin the key order of the JSON as printed."""

    REPORT = ["model", "checks", "classic_regular", "psi_regular", "fosd_ok",
              "provenance"]
    CHECK = ["name", "passed", "n_violations", "worst_violation", "witnesses",
             "n_evaluated", "n_failed", "provenance"]
    PROPOSITION = ["proposition", "verdict", "hypothesis_checks",
                   "conclusion_checks", "evidence", "provenance"]

    def test_check_keys(self, files, capsys):
        _, out, _ = run(capsys, "check", files["logistic"], "--grid", "17x17")
        rep = json.loads(out)
        assert list(rep) == self.REPORT
        assert list(rep["checks"]) == ["A0", "A1", "A2", "FOSD", "PSI"]
        for check in rep["checks"].values():
            assert list(check) == self.CHECK
        assert list(rep["model"]) == ["signal", "kernel"]
        assert list(rep["model"]["signal"]) == ["family", "support"]
        assert list(rep["model"]["kernel"]) == ["family", "support", "noise",
                                                "scale"]
        assert list(rep["provenance"]) == ["grid", "tolerances", "truncation"]

    def test_prop1_has_no_direction(self, files, capsys):
        _, out, _ = run(capsys, "verify", files["logistic"], "--prop", "1",
                        "--grid", "17x17")
        assert list(json.loads(out)) == self.PROPOSITION

    def test_prop3_direction_is_second(self, files, capsys):
        _, out, _ = run(capsys, "verify", files["logistic"], "--prop", "3",
                        "--grid", "17x17")
        rep = json.loads(out)
        assert list(rep) == ["forward", "converse"]
        for direction, report in rep.items():
            assert list(report) == ["proposition", "direction",
                                    *self.PROPOSITION[1:]]
            assert report["direction"] == direction


class TestTransform:
    def test_derived_file_round_trips(self, files, capsys):
        rc, out, _ = run(capsys, "transform", files["logistic"],
                         "--kind", "integrated_hazard")
        assert rc == 0
        model, _, _ = loads(out)
        assert isinstance(model, TransformedModel)
        assert model.relabeling.kind == "integrated_hazard"

    def test_output_deterministic(self, files, capsys):
        rc, first, _ = run(capsys, "transform", files["logistic"],
                           "--kind", "inverse_hazard_integral")
        rc, second, _ = run(capsys, "transform", files["logistic"],
                            "--kind", "inverse_hazard_integral")
        assert first == second

    def test_derived_model_passes_check(self, files, tmp_path, capsys):
        derived = tmp_path / "derived.model"
        rc, _, _ = run(capsys, "transform", files["logistic"],
                       "--kind", "integrated_hazard", "--out", str(derived))
        assert rc == 0
        rc, out, _ = run(capsys, "check", str(derived))
        assert rc == 0
        rep = json.loads(out)
        assert rep["checks"]["A0"]["passed"]
        assert rep["classic_regular"] and rep["fosd_ok"]

    def test_runningmax_rescues_a0_but_not_a2(self, files, tmp_path, capsys):
        # relabeling a falling hazard to its running max restores A0; the
        # price is a ratio that now rises in the signal, so A2 gives way
        # and the overall verdict stays negative
        derived = tmp_path / "rm.model"
        rc, _, _ = run(capsys, "transform", files["dechaz"],
                       "--kind", "runningmax_hazard", "--out", str(derived))
        assert rc == 0
        rc, out, _ = run(capsys, "check", str(derived))
        assert rc == 1
        rep = json.loads(out)
        assert rep["checks"]["A0"]["passed"]
        assert not rep["checks"]["A2"]["passed"]
        assert rep["checks"]["FOSD"]["passed"]

    def test_runningmax_on_vanishing_density(self, files, tmp_path, capsys):
        # beta(2, 2) has hazard 0 at v=0, so the running max starts at 0
        # and phi' takes its limit 1 there instead of dividing by zero
        derived = tmp_path / "rm_beta.model"
        rc, out, err = run(capsys, "transform", files["beta"], "--kind",
                           "runningmax_hazard", "--out", str(derived))
        assert (rc, out, err) == (0, "", "")
        model, _, _ = loads(derived.read_text())
        assert model.relabeling.phi_prime(0.0) == 1.0
        rc, out, _ = run(capsys, "check", str(derived), "--grid", "33x33")
        assert rc == 1
        rep = json.loads(out)
        assert rep["checks"]["A0"]["passed"]
        assert rep["fosd_ok"]

    def test_nonintegrable_exits_one(self, files, capsys):
        rc, out, err = run(capsys, "transform", files["beta"],
                           "--kind", "inverse_hazard_integral")
        assert rc == 1
        assert out == ""
        assert "diverged" in err

    def test_bad_slope_exits_one(self, files, capsys):
        rc, _, err = run(capsys, "transform", files["power"],
                         "--kind", "affine", "--slope", "-2.0")
        assert rc == 1
        assert "slope" in err

    @pytest.mark.parametrize("flag, kind", [
        ("--slope", "affine"), ("--intercept", "affine"),
        ("--w-lo", "inverse_hazard_integral"), ("--w-lo", "mean")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_exits_two(self, files, capsys, flag, kind,
                                       value):
        with pytest.raises(SystemExit) as exc:
            main(["transform", files["power"], "--kind", kind,
                  f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"seqscreen transform: error: argument {flag}: "
                          f"must be a finite number, got {value!r}"]

    def test_nan_probe_errors_fail_the_self_check(self, files, capsys):
        # the slope's reciprocal overflows, so every probe's error is NaN
        rc, out, err = run(capsys, "transform", files["power"],
                           "--kind", "affine", "--slope", "1e-320")
        assert (rc, out) == (1, "")
        assert_one_error_line(err, "relabeling self-check failed at 32 "
                                   "of 32 probe points")

    def test_unevaluable_probe_exits_two(self, tmp_path, capsys):
        # a table kernel flat over V in (0.5, 0.6): the conditional
        # density vanishes at the self-check probes in that band
        path = tmp_path / "flat.model"
        path.write_text(TABLE_KERNEL.replace(
            "V 0 0.5 1 ; H 0 0.5 1 0 0.2 1",
            "V 0 0.5 0.6 1 ; H 0 0.5 0.5 1 0 0.4 0.4 1"))
        rc, out, err = run(capsys, "transform", str(path), "--kind",
                           "affine", "--slope", "2")
        assert (rc, out) == (2, "")
        assert_one_error_line(err, "relabeling self-check cannot evaluate "
                              "the probe (v, V) = (0.5986709568339609, "
                              "0.5925587797980185): conditional density "
                              "vanished")

    def test_slope_on_wrong_kind_exits_one(self, files, capsys):
        rc, _, err = run(capsys, "transform", files["power"],
                         "--kind", "mean", "--slope", "2.0")
        assert rc == 1

    @pytest.mark.parametrize("kind", ["integrated_hazard",
                                      "runningmax_hazard"])
    def test_beta_with_density_zero_at_the_bottom(self, tmp_path, capsys,
                                                  kind):
        # beta(3, 0.5) is unbounded only at v = 1; the hazard relabelings
        # evaluate the density at v = 0, where it is 0
        path = tmp_path / "beta0305.model"
        path.write_text(BETA_NORMAL.replace("alpha=2.0 beta=2.0",
                                            "alpha=3.0 beta=0.5"))
        derived = tmp_path / "derived.model"
        rc, out, err = run(capsys, "transform", str(path), "--kind", kind,
                           "--out", str(derived))
        assert (rc, out, err) == (0, "", "")
        rc, out, err = run(capsys, "check", str(derived), "--grid", "33x33")
        assert rc in (0, 1)
        assert set(json.loads(out)["checks"]) == {"A0", "A1", "A2", "FOSD",
                                                  "PSI"}
        assert err == ""

    def test_chaining_refused(self, files, tmp_path, capsys):
        derived = tmp_path / "derived.model"
        run(capsys, "transform", files["logistic"], "--kind", "affine",
            "--out", str(derived))
        rc, _, err = run(capsys, "transform", str(derived), "--kind", "mean")
        assert rc == 2
        assert "already carries" in err


class TestGrid:
    def test_csv_shape(self, files, capsys):
        rc, out, _ = run(capsys, "grid", files["power"], "--what", "psi",
                         "--grid", "2x2")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "v,V,value"
        assert len(lines) == 5
        for line in lines[1:]:
            v, V, value = (float(tok) for tok in line.split(","))

    def test_additive_gamma_is_one(self, files, capsys):
        rc, out, _ = run(capsys, "grid", files["logistic"],
                         "--what", "gamma", "--grid", "3x3")
        values = {line.split(",")[2] for line in out.splitlines()[1:]}
        assert values == {"1"}

    def test_deterministic(self, files, capsys):
        rc, first, _ = run(capsys, "grid", files["power"], "--what", "H",
                           "--grid", "5x5")
        rc, second, _ = run(capsys, "grid", files["power"], "--what", "H",
                            "--grid", "5x5")
        assert first == second

    def test_rows_match_per_point_formatting(self, files, tmp_path, capsys):
        target = tmp_path / "psi.csv"
        rc, out, _ = run(capsys, "grid", files["thin"], "--what", "psi",
                         "--grid", "3x4")
        assert rc == 0
        rc, empty, _ = run(capsys, "grid", files["thin"], "--what", "psi",
                           "--grid", "3x4", "--out", str(target))
        assert (rc, empty) == (0, "")
        assert target.read_text(encoding="utf-8") == out
        model, grid, tol = load(files["thin"])
        grid = dataclasses.replace(grid, v_points=3, V_points=4)
        field = compute_field(model, "psi", grid, tol)
        assert np.isnan(field.values).sum() == 2
        want = "v,V,value\n" + "".join(
            "%.17g,%.17g,%.17g\n" % row for row in field.rows())
        assert out == want

    def test_unwritable_out_exits_two(self, files, tmp_path, capsys):
        rc, out, err = run(capsys, "grid", files["power"], "--what", "H",
                           "--grid", "5x5",
                           "--out", str(tmp_path / "no" / "dir.csv"))
        assert (rc, out) == (2, "")
        assert "cannot write" in err

    def test_unknown_field_rejected(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grid", files["power"], "--what", "omega"])
        assert exc.value.code == 2

    def test_malformed_grid_flag(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grid", files["power"], "--what", "H", "--grid", "12"])
        assert exc.value.code == 2


class TestStartup:
    """SciPy is imported only by a model that needs a normal-noise quantile
    (ndtri); the beta signal's incomplete beta is computed in the package.
    ``propositions`` and ``transforms`` load only for a command that calls
    them: ``verify``, ``transform`` or a derived model file."""

    LAZY = ("seqscreen.propositions", "seqscreen.transforms")

    def loaded(self, code, names):
        """Which of ``names`` a fresh interpreter holds after ``code``."""
        src = str(Path(seqscreen.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c",
             code + "\nimport json, sys\n"
             f"print(json.dumps([n for n in {list(names)!r} "
             "if n in sys.modules]))"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def scipy_loaded(self, code):
        return self.loaded(code, ["scipy"]) == ["scipy"]

    def test_base_commands_leave_the_suites_and_transforms_out(self, files):
        code = ("import seqscreen.cli\n"
                "from seqscreen.cli import main\n"
                f"assert main(['check', {files['power']!r}, "
                "'--grid', '9x9']) in (0, 1)\n"
                f"assert main(['grid', {files['power']!r}, '--what', 'psi', "
                "'--grid', '5x5']) == 0")
        assert self.loaded(code, self.LAZY) == []

    def test_verify_loads_the_suites(self, files):
        code = ("from seqscreen.cli import main\n"
                f"assert main(['verify', {files['power']!r}, '--prop', '2', "
                "'--grid', '9x9']) in (0, 1)")
        # the suites build relabelings, so transforms comes with them
        assert self.loaded(code, self.LAZY) == list(self.LAZY)

    def test_a_derived_file_loads_transforms(self, files, tmp_path):
        derived = str(tmp_path / "affine.model")
        assert main(["transform", files["power"], "--kind", "affine",
                     "--out", derived]) == 0
        code = ("from seqscreen.cli import main\n"
                f"assert main(['check', {derived!r}, '--grid', '9x9']) "
                "in (0, 1)")
        assert self.loaded(code, self.LAZY) == ["seqscreen.transforms"]

    def test_import_leaves_scipy_out(self):
        assert not self.scipy_loaded("import seqscreen.cli")

    def test_check_without_beta_or_normal_leaves_scipy_out(self, files):
        code = ("from seqscreen.cli import main\n"
                f"assert main(['check', {files['power']!r}, "
                "'--grid', '17x17']) in (0, 1)")
        assert not self.scipy_loaded(code)

    def test_beta_logistic_model_leaves_scipy_out(self, files, tmp_path):
        path = files["beta_logistic"]
        code = ("from seqscreen.cli import main\n"
                f"assert main(['check', {path!r}, '--grid', '9x9']) == 0\n"
                f"assert main(['verify', {path!r}, '--prop', '1', "
                "'--grid', '9x9']) in (0, 1)\n"
                f"assert main(['transform', {path!r}, '--kind', "
                f"'runningmax_hazard', '--out', {str(tmp_path / 'd')!r}]) "
                "== 0")
        assert not self.scipy_loaded(code)

    def test_beta_normal_model_loads_scipy(self, files):
        code = ("from seqscreen.cli import main\n"
                f"main(['check', {files['beta']!r}, '--grid', '5x5'])")
        assert self.scipy_loaded(code)

    def test_beta_normal_report(self, files, capsys):
        rc, out, _ = run(capsys, "check", files["beta"], "--grid", "17x17")
        assert rc == 0
        rep = json.loads(out)
        assert rep["classic_regular"] and rep["psi_regular"]
        assert rep["fosd_ok"]
        evaluated = {name: c["n_evaluated"]
                     for name, c in rep["checks"].items()}
        assert evaluated == {"A0": 17, "A1": 289, "A2": 289, "FOSD": 289,
                             "PSI": 289}
        # the value range is cut at the normal 1e-9 quantiles (ndtri)
        cut = rep["provenance"]["truncation"]
        assert cut["lower"] == pytest.approx(-5.9978070150076865, rel=1e-15)
        assert cut["upper"] == pytest.approx(6.997807019601637, rel=1e-15)


def test_module_entry_point(files):
    src = str(Path(seqscreen.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "seqscreen", "check", files["logistic"]],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["classic_regular"]


def test_closed_stdout_exits_two_with_one_line(files):
    # the CSV (about 4 MB) outgrows the pipe, so the writer meets the
    # closed end mid-stream
    src = str(Path(seqscreen.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "seqscreen", "grid", files["power"],
         "--what", "psi", "--grid", "257x257"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert first == b"v,V,value\n"
    assert err == ("seqscreen: error: cannot write to stdout: "
                   "[Errno 32] Broken pipe\n")


@pytest.mark.parametrize("grid, named", [
    (["--grid", "10000000x10000000"], "--grid 10000000x10000000"),
    ([], "the file's grid"),
], ids=["flag", "file"])
@pytest.mark.parametrize("command, evaluation", [
    (["check"], "validate_model"),
    (["grid", "--what", "psi"], "compute_field"),
], ids=["check", "grid"])
def test_out_of_memory_exits_two(files, capsys, monkeypatch, grid, named,
                                 command, evaluation):
    """A lattice too large to allocate is unusable input: one error line
    that names the grid. The evaluation is patched to raise, so nothing
    large is allocated."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, evaluation, exhausted)
    rc, out, err = run(capsys, command[0], files["power"], *command[1:],
                       *grid)
    assert rc == 2 and out == ""
    assert err == ("seqscreen: error: out of memory evaluating the lattice "
                   f"of {named}\n")


@pytest.mark.parametrize("hi", [600.0, 1000.0])
@pytest.mark.parametrize("command", [["check"], ["verify", "--prop", "3"]],
                         ids=["check", "verify3"])
def test_exp_tilt_at_large_signals_keeps_the_contract(tmp_path, capsys, hi,
                                                      command):
    path = tmp_path / "wide.model"
    path.write_text("[signal]\nfamily = uniform\nsupport = 0.5 "
                    f"{hi!r}\n\n[kernel]\nfamily = exp_tilt\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, command[0], str(path), *command[1:],
                           "--grid", "17x17")
    assert caught == []
    if hi < 700.0:
        assert rc in (0, 1) and err == ""
        json.loads(out)
    else:
        # the density is below the 1e-300 floor where v(1 - V) > ~700
        assert rc == 2 and out == ""
        assert_one_error_line(err, "A1 check aborted: 19 of 289 evaluations "
                              "failed inside v in [750.075, 999.9]")


TABLE_KERNEL = """\
[signal]
family = uniform
support = 0 1

[kernel]
family = table
params = v 0 1 ; V 0 0.5 1 ; H 0 0.5 1 0 0.2 1
"""


@pytest.mark.parametrize("text, command, needle, line", [
    (DECREASING_HAZARD.replace("0.4:0.7", "0.4:nan"),
     ["verify", "--prop", "3", "--grid", "9x9"], "table signal", 3),
    (DECREASING_HAZARD.replace("0.4:0.7", "0.4:inf"), ["check"],
     "table signal", 3),
    (TABLE_KERNEL.replace("H 0 0.5", "H 0 nan"),
     ["grid", "--what", "H", "--grid", "3x3"], "table kernel", 7),
    (TABLE_KERNEL.replace("H 0 0.5", "H 0 nan"),
     ["transform", "--kind", "affine"], "table kernel", 7),
    (TABLE_KERNEL.replace("H 0 0.5", "H 0 nan"), ["verify", "--prop", "1"],
     "table kernel", 7),
    (TABLE_KERNEL.replace("V 0 0.5 1", "V 0 0.5 inf"), ["check"],
     "table kernel", 7),
    (LOGISTIC + "noise.scale = inf\n", ["check"], "noise scale", 8),
], ids=["signal-nan", "signal-inf", "kernel-nan-grid", "kernel-nan-transform",
        "kernel-nan-verify", "kernel-node-inf", "scale-inf"])
def test_non_finite_model_numbers_exit_two(tmp_path, capsys, text, command,
                                           needle, line):
    path = tmp_path / "bad.model"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, command[0], str(path), *command[1:],
                           "--out", str(tmp_path / "out"))
    assert caught == []
    assert rc == 2 and out == ""
    assert not (tmp_path / "out").exists()
    assert_one_error_line(err, f"{needle} ")
    assert "must be" in err and "finite" in err
    # the line of the offending entry, and its key
    key = "noise.scale" if needle == "noise scale" else "params"
    assert err.endswith(f" (line {line}, key {key!r})\n"), err


def _edited_affine_file(files, tmp_path, old, new, key):
    """The affine-derived logistic file with ``old`` replaced by ``new``,
    and the line of ``key`` in it."""
    derived = tmp_path / "affine.model"
    assert main(["transform", files["logistic"], "--kind", "affine",
                 "--out", str(derived)]) == 0
    text = derived.read_text()
    line = next(n for n, raw in enumerate(text.splitlines(), 1)
                if raw.startswith(f"{key} ="))
    assert old in text
    derived.write_text(text.replace(old, new, 1))
    return str(derived), line


@pytest.mark.parametrize("old, new, key, needle", [
    ("intercept = 0.0", "intercept = 0.5", "w_support",
     "rebuilt codomain starts at 0.5, file says 0.0"),
    ("slope = 1.0", "slope = -1.0", "slope", "needs slope > 0"),
    ("0.00390625:0.00390625:1.0", "0.00390625:0.5:1.0", "phi_table",
     "does not match the recorded 0.5"),
], ids=["codomain", "slope-sign", "table"])
def test_transform_rebuild_error_names_its_line(files, tmp_path, capsys,
                                                old, new, key, needle):
    path, line = _edited_affine_file(files, tmp_path, old, new, key)
    capsys.readouterr()
    rc, out, err = run(capsys, "check", path)
    assert rc == 2 and out == ""
    assert_one_error_line(err, "[transform] section could not be rebuilt")
    assert needle in err
    assert err.endswith(f" (line {line}, key {key!r})\n"), err


_TABLE_ENTRY = "0.00390625:0.00390625:1.0"


@pytest.mark.parametrize("old, new, key, message", [
    ("w_lo = 0.0", "w_lo = zero", "w_lo",
     "w_lo contains a non-numeric token 'zero'"),
    ("w_lo = 0.0", "w_lo = 0.0 1.0", "w_lo", "w_lo needs exactly one number"),
    ("slope = 1.0", "slope = one", "slope",
     "slope contains a non-numeric token 'one'"),
    ("slope = 1.0", "slope =", "slope", "slope needs exactly one number"),
    ("intercept = 0.0", "intercept = 0.0x", "intercept",
     "intercept contains a non-numeric token '0.0x'"),
    ("intercept = 0.0", "intercept = 0 0", "intercept",
     "intercept needs exactly one number"),
    ("w_support = 0.0 1.0", "w_support = 0.0 top", "w_support",
     "w_support contains a non-numeric token 'top'"),
    ("w_support = 0.0 1.0", "w_support = 0.0", "w_support",
     "w_support needs exactly two numbers"),
    (_TABLE_ENTRY, "0.00390625:0.00390625:slope", "phi_table",
     "phi_table contains a non-numeric token 'slope'"),
    (_TABLE_ENTRY, "0.00390625:0.00390625", "phi_table",
     "phi_table entries need v:w:slope, got '0.00390625:0.00390625'"),
    (_TABLE_ENTRY, _TABLE_ENTRY + ":1.0", "phi_table",
     "phi_table entries need v:w:slope, got "
     "'0.00390625:0.00390625:1.0:1.0'"),
    ("kind = affine", "kind = mean", "slope",
     "slope/intercept keys only apply to the affine kind"),
], ids=["w_lo-token", "w_lo-count", "slope-token", "slope-count",
        "intercept-token", "intercept-count", "w_support-token",
        "w_support-count", "table-token", "table-one-colon",
        "table-three-colons", "slope-kind"])
def test_transform_section_parse_error_names_its_line(files, tmp_path,
                                                      capsys, old, new, key,
                                                      message):
    # the section's text is read before any rebuild, so the message is the
    # loader's own
    path, line = _edited_affine_file(files, tmp_path, old, new, key)
    capsys.readouterr()
    rc, out, err = run(capsys, "check", path)
    assert rc == 2 and out == ""
    assert err == (f"seqscreen: error: {message} "
                   f"(line {line}, key {key!r})\n")


@pytest.mark.parametrize("text, message, line, key", [
    (POWER + "\n[grid]\nv_points = 33\nendpoint_margin = 0.7\n",
     "endpoint_margin must lie in (0, 0.5)", 10, "endpoint_margin"),
    (POWER + "\n[grid]\nv_points = 1\nV_points = 1\n",
     "grids need at least 2 points per axis", 9, "v_points"),
    (POWER + "\n[tolerances]\nmonotonicity = -1\n",
     "monotonicity_slack must be strictly positive and finite", 9,
     "monotonicity"),
    (POWER.replace("support = 1.0 2.0", "support = 0 1"),
     "power kernel needs a signal support with positive lower endpoint, "
     "got 0.0", 6, "family"),
], ids=["endpoint-margin", "v-points", "monotonicity", "kernel-pairing"])
def test_config_and_pairing_errors_name_their_line(tmp_path, capsys, text,
                                                   message, line, key):
    # a kernel that refuses its signal names the [kernel] family line
    path = tmp_path / "bad.model"
    path.write_text(text)
    rc, out, err = run(capsys, "check", str(path))
    assert rc == 2 and out == ""
    assert err == (f"seqscreen: error: {message} "
                   f"(line {line}, key {key!r})\n")


def test_numeric_failure_outside_the_toolkit_exits_two(files, capsys,
                                                       monkeypatch):
    def divide(args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "_cmd_check", divide)
    rc, out, err = run(capsys, "check", files["power"])
    assert rc == 2 and out == ""
    assert err == ("seqscreen: error: numeric failure: ZeroDivisionError: "
                   "float division by zero\n")


def test_collapsed_mean_slope_is_refused(tmp_path, capsys):
    # On [0, 1e160] each value range collapses to one float, so the mean
    # map's slope is 0: a relabeling that cannot be built.
    path = tmp_path / "wide.model"
    path.write_text(LOGISTIC.replace("support = 0.0 1.0",
                                     "support = 0.0 1e160"))
    rc, out, err = run(capsys, "transform", str(path), "--kind", "mean",
                       "--out", str(tmp_path / "derived.model"))
    assert rc == 1 and out == ""
    assert not (tmp_path / "derived.model").exists()
    assert_one_error_line(err, "mean relabeling: the conditional mean's "
                               "slope 0.0 at v=3.90625e+157 is not positive")
