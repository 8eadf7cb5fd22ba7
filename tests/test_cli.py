"""Command-line behavior: exit codes, output shapes, determinism.

Exit-code contract under test: 0 success, 1 negative finding (failed
regularity, discrepancy verdict, unbuildable relabeling), 2 unusable input.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqscreen
from seqscreen import model_core, transforms
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

    @staticmethod
    def _stencil_failure(monkeypatch, exc_type):
        """Power models load with a subclass of the power kernel without
        its analytic slope, so validation's stochastic-ordering sample
        differentiates its cdf, and a cdf that raises just above the top
        of that sample, where only a difference stencil reaches."""

        class Failing(PowerKernel):
            def cdf(self, v, V):
                if v > 1.99991:
                    raise exc_type(f"signal {v!r} beyond the sample")
                return super().cdf(v, V)

            def cdf_dv(self, v, V):
                return None

        monkeypatch.setattr(model_core, "PowerKernel", Failing)

    def test_domain_error_in_stencil_exits_two(self, files, capsys,
                                               monkeypatch):
        self._stencil_failure(monkeypatch, DomainError)
        rc, out, err = run(capsys, "check", files["power"])
        assert rc == 2 and out == ""
        assert err.startswith(
            "seqscreen: error: stencil evaluation failed at x=")
        assert err.count("\n") == 1

    def test_non_numeric_error_in_stencil_propagates(self, files, capsys,
                                                     monkeypatch):
        class Interrupted(RuntimeError):
            pass

        self._stencil_failure(monkeypatch, Interrupted)
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

    def test_prop_flag_required(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", files["logistic"]])
        assert exc.value.code == 2


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
    (ndtri); the beta signal's incomplete beta is computed in the package."""

    def scipy_loaded(self, code):
        src = str(Path(seqscreen.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c",
             code + "\nimport sys; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1] == "True"

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
