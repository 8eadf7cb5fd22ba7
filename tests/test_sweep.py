"""The byte-identity gate: ``tools/sweep.py --diff`` on synthetic manifests."""

import copy
import hashlib
import importlib.util
import json
from pathlib import Path

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"


def _load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep = _load_sweep()

ARGVS = ["check <models>/logistic.model",
         "verify <models>/power.model --prop 2 --grid 17x17",
         "transform <models>/logistic.model --kind mean --out <work>/x.model"]


def _commands(seconds):
    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return [{"argv": argv, "exit": 0, "exception": None, "seconds": seconds,
             "stdout_sha256": digest(argv), "stdout_bytes": len(argv),
             "stderr": "", "out_sha256": digest("out") if "--out" in argv
             else None, "out_bytes": 3 if "--out" in argv else None}
            for argv in ARGVS]


def _diff(tmp_path, left, right):
    paths = []
    for name, commands in (("a.json", left), ("b.json", right)):
        path = tmp_path / name
        path.write_text(json.dumps({"src": name, "seconds": 1.0,
                                    "commands": commands}))
        paths.append(str(path))
    return sweep.main(["--diff", *paths])


def test_identical_manifests_differ_nowhere(tmp_path, capsys):
    # run times are recorded but never compared
    assert _diff(tmp_path, _commands(0.5), _commands(0.7)) == 0
    assert capsys.readouterr().out == "0 of 3 commands differ\n"


def test_a_changed_digest_names_its_command(tmp_path, capsys):
    left = _commands(0.5)
    right = copy.deepcopy(left)
    right[1]["stdout_sha256"] = "0" * 64
    assert _diff(tmp_path, left, right) == 1
    assert capsys.readouterr().out == (
        f"{ARGVS[1]}: stdout_sha256 differ\n1 of 3 commands differ\n")


def test_tool_models_get_the_base_commands(tmp_path):
    # no benchmark model uses exp_tilt; the sweep runs tools/models too
    tool_models = sorted(sweep.TOOL_MODELS.glob("*.model"))
    assert [p.name for p in tool_models] == ["exptilt_beta.model",
                                             "exptilt_uniform.model"]
    cmds = sweep.base_commands(tmp_path)
    per_file = len(cmds) // (len(list(sweep.MODELS.glob("*.model")))
                             + len(tool_models))
    for path in tool_models:
        mine = [argv for argv in cmds if str(path) in argv]
        assert len(mine) == per_file
        assert ["check", str(path)] in mine
        assert [argv[3] for argv in mine if argv[0] == "transform"] == list(
            sweep.KINDS)


def test_run_time_changes_are_listed_but_not_compared(tmp_path, capsys):
    # 3x or more with either side at 50 ms or more; the exit code is the
    # compared fields' alone
    left, right = _commands(0.02), _commands(0.02)
    right[0]["seconds"] = 0.06  # 3x, and past the floor
    right[1]["seconds"] = 0.049  # 2.45x
    right[2]["seconds"] = 0.005  # 4x, but both sides under the floor
    assert _diff(tmp_path, left, right) == 0
    assert capsys.readouterr().out == (
        "0 of 3 commands differ\n"
        "run time changed 3x or more in 1 of 3 commands (not compared):\n"
        f"  {ARGVS[0]}: 0.020 -> 0.060 s\n")
    right[0]["stdout_sha256"] = "0" * 64
    right[1]["seconds"] = 0.5
    assert _diff(tmp_path, right, left) == 1
    assert capsys.readouterr().out == (
        f"{ARGVS[0]}: stdout_sha256 differ\n"
        "1 of 3 commands differ\n"
        "run time changed 3x or more in 2 of 3 commands (not compared):\n"
        f"  {ARGVS[0]}: 0.060 -> 0.020 s\n"
        f"  {ARGVS[1]}: 0.500 -> 0.020 s\n")
