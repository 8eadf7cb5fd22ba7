"""The command line's exit-code contract, as a property over drawn models.

Every command on every model the file format accepts ends in exit 0, 1 or
2, with no exception but ``SystemExit`` escaping ``main``. Exits 0 and 1
print a strict JSON report (no ``NaN`` or ``Infinity`` token), or the
``v,V,value`` CSV of a 17x17 grid; exit 2, and
a ``transform`` whose relabeling cannot be built (exit 1), print one
``seqscreen: error:`` line and nothing else. No command issues a NumPy
warning: the test configuration raises it, so it escapes ``main``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqscreen.cli import main
from seqscreen.transforms import RELABELING_KINDS

GRID = ["--grid", "17x17"]


def _fmt(x: float) -> str:
    return repr(float(x))


def _numbers(values) -> str:
    return " ".join(_fmt(x) for x in values)


@st.composite
def _increasing(draw, lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi, ends included, strictly increasing."""
    gaps = draw(st.lists(st.floats(0.2, 1.0), min_size=n - 1,
                         max_size=n - 1))
    total = sum(gaps)
    points, acc = [lo], 0.0
    for gap in gaps[:-1]:
        acc += gap
        points.append(lo + (hi - lo) * acc / total)
    return points + [hi]


KERNELS = ("additive_noise", "power", "exp_tilt", "table")


@st.composite
def _kernel(draw, family: str, lo: float, hi: float) -> list[str]:
    lines = ["[kernel]", f"family = {family}"]
    if family == "additive_noise":
        noise = draw(st.sampled_from(["normal", "logistic", "laplace"]))
        scale = 10.0 ** draw(st.floats(-3.0, 1.0))
        lines += [f"noise.family = {noise}", f"noise.scale = {_fmt(scale)}"]
    elif family == "table":
        v_nodes = draw(_increasing(lo, hi, draw(st.integers(2, 4))))
        V_nodes = draw(_increasing(0.0, 1.0, draw(st.integers(3, 6))))
        rows = []
        for _ in v_nodes:
            steps = draw(st.lists(st.floats(0.05, 1.0),
                                  min_size=len(V_nodes) - 1,
                                  max_size=len(V_nodes) - 1))
            row = [0.0]
            for step in steps:
                row.append(row[-1] + step)
            rows += row
        lines += [f"params = v {_numbers(v_nodes)} ; V {_numbers(V_nodes)}"
                  f" ; H {_numbers(rows)}"]
    return lines


@st.composite
def _model(draw, kernel: str) -> str:
    lo = draw(st.floats(0.05, 2.0))
    hi = lo + draw(st.floats(0.1, 3.0))
    family = draw(st.sampled_from(["uniform", "beta", "table"]))
    lines = ["[signal]", f"family = {family}"]
    if family == "uniform":
        lines.append(f"support = {_fmt(lo)} {_fmt(hi)}")
    elif family == "beta":
        alpha, beta = draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 5.0))
        lines += [f"support = {_fmt(lo)} {_fmt(hi)}",
                  f"params = alpha={_fmt(alpha)} beta={_fmt(beta)}"]
    else:
        nodes = draw(_increasing(lo, hi, draw(st.integers(2, 5))))
        dens = [draw(st.floats(0.1, 3.0)) for _ in nodes]
        lines.append("params = " + " ".join(
            f"{_fmt(v)}:{_fmt(f)}" for v, f in zip(nodes, dens)))
    return "\n".join(lines + [""] + draw(_kernel(kernel, lo, hi))) + "\n"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(token: str):
    raise AssertionError(f"report is not strict JSON: it holds {token}")


def _assert_contract(argv: list[str]) -> tuple[int, str, str]:
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    # a relabeling that cannot be built is a finding, and names its cause
    if code == 2 or (code == 1 and argv[0] == "transform"):
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("seqscreen: error: "), (
            argv, err)
        return code, out, err
    assert err == "", (argv, err)
    if "--out" in argv:
        assert out == ""
    elif argv[0] == "grid":
        rows = out.splitlines()
        assert rows[0] == "v,V,value" and len(rows) == 1 + 17 * 17, argv
    else:
        json.loads(out, parse_constant=_reject_constant)
    return code, out, err


def _assert_paper_claims(argv: list[str]) -> None:
    """Run ``check`` under the contract and hold its report to the paper's
    closing remark (A1 and FOSD make the virtual value weakly increasing)
    and second claim (with a finite lower value endpoint, FOSD rules out
    A1 and A2 together)."""
    code, out, _ = _assert_contract(argv)
    if code == 2:
        return
    report = json.loads(out)
    checks = report["checks"]
    if report["classic_regular"] and report["fosd_ok"]:
        assert report["psi_regular"], argv
    if report["fosd_ok"] and report["model"]["kernel"]["support"][0] != "-inf":
        assert not (checks["A1"]["passed"] and checks["A2"]["passed"]), argv


@pytest.mark.parametrize("kernel", KERNELS)
@settings(derandomize=True, max_examples=6, deadline=None, database=None)
@given(data=st.data())
def test_every_command_keeps_the_exit_contract(kernel, data):
    text = data.draw(_model(kernel), label="model")
    kind = data.draw(st.sampled_from(RELABELING_KINDS), label="kind")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.model"
        path.write_text(text, encoding="utf-8")
        model = str(path)
        _assert_paper_claims(["check", model, *GRID])
        for prop in ("1", "2", "3"):
            _assert_contract(["verify", model, "--prop", prop, *GRID])
        _assert_contract(["grid", model, "--what", "psi", *GRID])
        derived = str(Path(tmp) / "derived.model")
        if _assert_contract(["transform", model, "--kind", kind,
                             "--out", derived, *GRID])[0] == 0:
            _assert_paper_claims(["check", derived, *GRID])


LOGISTIC = "[kernel]\nfamily = additive_noise\nnoise.family = logistic\n"
# models at the edge of what floats hold: supports narrow against their
# width or their place, a beta whose normalizing constant overflows, and
# a support so narrow that the exp_tilt hazard's ratios overflow
EDGE_MODELS = {
    "narrow": "[signal]\nfamily = uniform\nsupport = 0.0 1e-4\n\n" + LOGISTIC,
    "far": ("[signal]\nfamily = uniform\nsupport = 1000.0 1000.001\n\n"
            + LOGISTIC),
    "beta600": ("[signal]\nfamily = beta\nparams = alpha=600 beta=600\n\n"
                + LOGISTIC),
    "tilt_tiny": ("[signal]\nfamily = uniform\nsupport = 0.0 1e-300\n\n"
                  "[kernel]\nfamily = exp_tilt\n"),
}
MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"


@pytest.mark.parametrize("name", sorted(EDGE_MODELS))
def test_edge_models_keep_the_exit_contract(name, tmp_path):
    model = tmp_path / f"{name}.model"
    model.write_text(EDGE_MODELS[name], encoding="utf-8")
    _assert_contract(["check", str(model), *GRID])
    for prop in ("1", "2", "3"):
        _assert_contract(["verify", str(model), "--prop", prop, *GRID])
    _assert_contract(["grid", str(model), "--what", "psi", *GRID])
    for kind in RELABELING_KINDS:
        code, _, err = _assert_contract(
            ["transform", str(model), "--kind", kind,
             "--out", str(tmp_path / f"{kind}.model"), *GRID])
        if name == "beta600" and kind == "inverse_hazard_integral":
            # the cell whose integral meets the vanished density is retried
            # in one call of its own, which raises this
            assert (code, err) == (2, "seqscreen: error: signal density "
                                      "vanished at v=0.0009765625\n")


@pytest.mark.parametrize("slope, intercept", [("1e308", "1e308"),
                                              ("1e-308", "0")])
def test_extreme_affine_maps_keep_the_exit_contract(slope, intercept):
    _assert_contract(["transform", str(MODELS / "logistic.model"), "--kind",
                      "affine", f"--slope={slope}",
                      f"--intercept={intercept}", *GRID])
