"""Model file parsing, validation errors, and write/read round trips."""

from pathlib import Path

import numpy as np
import pytest

from seqscreen import modelfile
from seqscreen.cli import main
from seqscreen.errors import LoadError
from seqscreen.model_core import (
    AdditiveNoiseKernel,
    BetaSignal,
    GridSpec,
    PowerKernel,
    ScreeningModel,
    TableKernel,
    TableSignal,
    ToleranceConfig,
    UniformSignal,
)
from seqscreen.numerics import Interval

BASIC = """\
[signal]
family = uniform
support = 0.0 1.0

[kernel]
family = additive_noise
noise.family = logistic
noise.scale = 1.0
"""


class TestParsing:
    def test_basic_model(self):
        model, grid, tol = modelfile.loads(BASIC)
        assert model.signal.family == "uniform"
        assert model.kernel.family == "additive_noise"
        assert model.kernel.noise == "logistic"
        assert grid == GridSpec()
        assert tol == ToleranceConfig()

    def test_grid_and_tolerance_sections(self):
        text = BASIC + """
[grid]
v_points = 65
V_points = 33
endpoint_margin = 1e-3
tail_mass_cut = 1e-8

[tolerances]
monotonicity = 1e-6
quadrature_rel = 1e-9
"""
        _, grid, tol = modelfile.loads(text)
        assert grid.v_points == 65
        assert grid.V_points == 33
        assert grid.endpoint_margin == 1e-3
        assert grid.tail_mass_cut == 1e-8
        assert tol.monotonicity_slack == 1e-6
        assert tol.quadrature_rel == 1e-9

    def test_comments_and_blank_lines(self):
        text = "# a model\n\n" + BASIC
        model, _, _ = modelfile.loads(text)
        assert model.signal.family == "uniform"

    def test_table_signal_with_continuations(self):
        text = """\
[signal]
family = table
params =
    0.0:3.0 0.2:1.2
    0.4:0.7 0.6:0.55
    0.8:0.8 1.0:1.6

[kernel]
family = additive_noise
"""
        model, _, _ = modelfile.loads(text)
        assert model.signal.family == "table"
        assert model.signal.support.as_tuple() == (0.0, 1.0)

    def test_table_kernel_groups(self):
        text = """\
[signal]
family = uniform
support = 0.0 1.0

[kernel]
family = table
params = v 0.0 1.0 ; V 0.0 0.5 1.0 ; H
    0.0 0.6 1.0
    0.0 0.4 1.0
"""
        model, _, _ = modelfile.loads(text)
        assert model.kernel.family == "table"
        assert model.kernel.cdf(0.0, 0.5) == pytest.approx(0.6)
        assert model.kernel.cdf(1.0, 0.5) == pytest.approx(0.4)


class TestErrors:
    def test_misspelled_key_names_the_key(self):
        text = BASIC.replace("noise.family", "nois.family")
        with pytest.raises(LoadError) as exc:
            modelfile.loads(text)
        assert "nois.family" in str(exc.value)
        assert exc.value.key == "nois.family"
        assert exc.value.line is not None

    def test_unknown_section(self):
        with pytest.raises(LoadError, match=r"\[signals\]"):
            modelfile.loads("[signals]\nfamily = uniform\n")

    def test_missing_kernel_section(self):
        with pytest.raises(LoadError, match=r"missing the \[kernel\]"):
            modelfile.loads("[signal]\nfamily = uniform\nsupport = 0 1\n")

    def test_duplicate_key(self):
        text = BASIC + "\n[grid]\nv_points = 3\nv_points = 5\n"
        with pytest.raises(LoadError, match="duplicate key"):
            modelfile.loads(text)

    def test_key_before_section(self):
        with pytest.raises(LoadError, match="before any section"):
            modelfile.loads("family = uniform\n")

    def test_support_needs_two_numbers(self):
        text = BASIC.replace("support = 0.0 1.0", "support = 0.0")
        with pytest.raises(LoadError, match="exactly two"):
            modelfile.loads(text)

    def test_power_rejects_noise_keys(self):
        text = """\
[signal]
family = uniform
support = 1.0 2.0

[kernel]
family = power
noise.scale = 2.0
"""
        with pytest.raises(LoadError, match="does not use"):
            modelfile.loads(text)

    def test_construction_failure_becomes_load_error(self):
        text = """\
[signal]
family = uniform
support = 0.0 1.0

[kernel]
family = power
"""
        with pytest.raises(LoadError, match="positive lower"):
            modelfile.loads(text)

    def test_table_kernel_h_count_mismatch(self):
        text = """\
[signal]
family = uniform
support = 0.0 1.0

[kernel]
family = table
params = v 0.0 1.0 ; V 0.0 1.0 ; H 0.0 1.0 0.0
"""
        with pytest.raises(LoadError, match="expected 2 \\* 2"):
            modelfile.loads(text)

    def test_non_numeric_value(self):
        text = BASIC.replace("noise.scale = 1.0", "noise.scale = big")
        with pytest.raises(LoadError, match="must be a number"):
            modelfile.loads(text)

    def test_unparseable_line(self):
        with pytest.raises(LoadError, match="cannot parse"):
            modelfile.loads("[signal]\nfamily uniform\n")


class TestRoundTrips:
    def check_round_trip(self, model, grid=None, tol=None):
        text = modelfile.dumps(model, grid, tol)
        loaded, g2, t2 = modelfile.loads(text)
        assert loaded.describe() == model.describe()
        assert g2 == (grid or GridSpec())
        assert t2 == (tol or ToleranceConfig())
        # A second trip must be byte-stable.
        assert modelfile.dumps(loaded, g2, t2) == text

    def test_uniform_logistic(self):
        self.check_round_trip(
            ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                           AdditiveNoiseKernel(noise="logistic", scale=1.0)),
            GridSpec(v_points=65, V_points=65),
            ToleranceConfig(monotonicity_slack=1e-7))

    def test_beta_normal(self):
        self.check_round_trip(
            ScreeningModel(BetaSignal(2.0, 2.0),
                           AdditiveNoiseKernel(noise="normal", scale=0.5)))

    def test_power(self):
        self.check_round_trip(
            ScreeningModel(UniformSignal(Interval(1.0, 2.0)), PowerKernel()))

    def test_table_signal(self):
        sig = TableSignal([0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                          [3.0, 1.2, 0.7, 0.55, 0.8, 1.6])
        self.check_round_trip(
            ScreeningModel(sig, AdditiveNoiseKernel(noise="laplace")))

    def test_table_kernel(self):
        V_nodes = np.linspace(-4.0, 5.0, 17)
        ref = AdditiveNoiseKernel(noise="logistic", scale=1.0)
        H = [[ref.cdf(v, V) for V in V_nodes] for v in (0.0, 0.5, 1.0)]
        kern = TableKernel([0.0, 0.5, 1.0], V_nodes, H)
        self.check_round_trip(
            ScreeningModel(UniformSignal(Interval(0.0, 1.0)), kern))

    def test_save_and_load_file(self, tmp_path):
        path = tmp_path / "model.cfg"
        model = ScreeningModel(UniformSignal(Interval(1.0, 2.0)),
                               PowerKernel())
        path.write_text(modelfile.dumps(model), encoding="utf-8")
        loaded, _, _ = modelfile.load(str(path))
        assert loaded.describe() == model.describe()

    def test_missing_file(self):
        with pytest.raises(LoadError, match="cannot read"):
            modelfile.load("/nonexistent/model.cfg")


BENCH_MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"


@pytest.mark.parametrize("name", sorted(
    p.name for p in BENCH_MODELS.glob("*.model")))
@pytest.mark.parametrize("kind", modelfile.RELABELING_KINDS)
def test_derived_file_round_trips_byte_for_byte(tmp_path, capsys, kind,
                                                name):
    # the [transform] section is read into numbers and written back from
    # the rebuilt relabeling's, so the text comes back byte for byte
    derived = tmp_path / "derived.model"
    rc = main(["transform", str(BENCH_MODELS / name), "--kind", kind,
               "--out", str(derived)])
    capsys.readouterr()
    if rc:  # a relabeling that cannot be built or written
        assert rc == 1 and not derived.exists()
        return
    text = derived.read_text(encoding="utf-8")
    assert "\n[transform]\n" in text
    assert modelfile.dumps(*modelfile.loads(text)) == text


def test_transform_section_reaches_the_rebuild_as_numbers(monkeypatch):
    from seqscreen import transforms

    base = ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                          AdditiveNoiseKernel(noise="logistic"))
    tm = transforms.relabel(base, "affine", slope=2.0, intercept=1.0)
    seen = []
    monkeypatch.setattr(transforms, "rebuild_from_section",
                        lambda model, section: seen.append(section) or tm)
    modelfile.loads(modelfile.dumps(tm))
    (section,) = seen
    want = transforms.transform_section(tm)
    assert list(section) == list(want)
    assert len(section["phi_table"]) == 257
    assert section["phi_table"] == [list(r) for r in want.pop("phi_table")]
    assert {k: section[k] for k in want} == want
