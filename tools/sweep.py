"""Output sweep: every subcommand on every benchmark model and derived file.

Runs the ``seqscreen`` CLI in-process, from the ``src/`` directory of a
given tree, over a fixed command list, and writes a manifest of what each
command produced: exit code, stdout, stderr and the ``--out`` file. Two
manifests, one per tree, are compared with ``--diff``; a change that must
keep the output byte-identical shows an empty diff.

    python3 tools/sweep.py --src path/to/tree/src --manifest a.json
    python3 tools/sweep.py --diff a.json b.json

The command list, on each of the ``perfbench/models`` files and then each
of the ``tools/models`` files (read, never written): ``check`` at the
default grid and at 33x33, ``verify --prop 1|2|3`` and ``grid`` of every
field at 17x17, and ``transform`` of every relabeling kind, whose
``--out`` files (the derived files) go to a scratch directory. Then, on
each derived file: ``check`` at 33x33, ``verify --prop 1|2|3`` and
``grid`` of every field at 17x17, and ``transform`` of every kind.

Texts are compared as written, except that the scratch and model
directories read ``<work>``, ``<models>`` and ``<tool-models>``, an
exception that escapes ``main`` is recorded as its type and message (a
traceback names the tree's paths and line numbers), and a warning is
written as its category and message, every time it is issued. stdout and
``--out`` texts are recorded as SHA-256 digests with their lengths; stderr
is kept whole. Run times are not compared, but ``--diff`` lists, for
information, each command whose ``seconds`` changed by a factor of 3 or
more where either side took at least 50 ms.

Each command also carries a replay record, ``"replays": {caller: calls}``:
the functions that called ``numerics._pointwise``, the point-by-point
evaluation that stands in for an array call, and how often. ``--diff``
does not compare these either; it lists each command whose record changed
(a manifest without them reads ``{}``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
import time
import warnings
from pathlib import Path

MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"
# families no benchmark model uses
TOOL_MODELS = Path(__file__).resolve().parent / "models"
KINDS = ("inverse_hazard_integral", "integrated_hazard", "runningmax_hazard",
         "mean", "affine")
FIELDS = ("H", "h", "dHdv", "gamma", "psi")
COMPARED = ("exit", "exception", "stdout_sha256", "stderr", "out_sha256")
GRID = "17x17"  # of the verify and grid commands
CHECK_GRID = "33x33"  # of the sized check commands
TIMING_RATIO = 3.0  # of the run-time changes --diff lists
TIMING_FLOOR = 0.05  # s; a change where both sides are faster is noise


def _on_file(path: str, extra_check: bool) -> list[list[str]]:
    cmds = [["check", path]] if extra_check else []
    cmds.append(["check", path, "--grid", CHECK_GRID])
    cmds += [["verify", path, "--prop", p, "--grid", GRID]
             for p in ("1", "2", "3")]
    cmds += [["grid", path, "--what", f, "--grid", GRID] for f in FIELDS]
    return cmds


def base_commands(work: Path) -> list[list[str]]:
    """The commands on the base model files, in sweep order; the
    transforms write the derived files into ``work``."""
    cmds = []
    for path in sorted(MODELS.glob("*.model")) + sorted(
            TOOL_MODELS.glob("*.model")):
        cmds += _on_file(str(path), True)
        cmds += [["transform", str(path), "--kind", kind, "--out",
                  str(work / f"{path.stem}__{kind}.model")] for kind in KINDS]
    return cmds


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record_replays(replays: dict[str, int]) -> None:
    """Count each call of ``numerics._pointwise`` into ``replays`` under its
    caller's name, by wrapping it in every ``seqscreen`` module that
    imported it; the CLI imports ``transforms`` and ``propositions`` only
    when a command needs them, so they are imported first."""
    for name in ("cli", "transforms", "propositions"):
        importlib.import_module(f"seqscreen.{name}")
    pointwise = sys.modules["seqscreen.numerics"]._pointwise

    def counted(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        replays[caller] = replays.get(caller, 0) + 1
        return pointwise(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("seqscreen.")
                and getattr(module, "_pointwise", None) is pointwise):
            module._pointwise = counted


def _run(main, argv: list[str], names: dict[str, str],
         replays: dict[str, int]) -> dict:
    """One command in-process; texts with the directories of ``names``
    replaced by their labels. ``replays`` is the record ``_record_replays``
    fills, emptied first."""

    def clean(text: str) -> str:
        for path, label in names.items():
            text = text.replace(path, label)
        return text

    def show(message, category, *_args, **_kwargs):
        sys.stderr.write(f"{category.__name__}: {message}\n")

    out, err = io.StringIO(), io.StringIO()
    entry: dict = {"argv": clean(" ".join(argv)), "exception": None}
    target = argv[argv.index("--out") + 1] if "--out" in argv else None
    replays.clear()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        try:
            entry["exit"] = main(argv)
        except SystemExit as exc:  # argparse
            entry["exit"] = exc.code
        except Exception as exc:  # noqa: BLE001 - recorded, not hidden
            entry["exit"] = None
            entry["exception"] = clean(f"{type(exc).__name__}: {exc}")
    entry["seconds"] = round(time.perf_counter() - t0, 4)
    entry["replays"] = dict(sorted(replays.items()))
    stdout = clean(out.getvalue())
    entry.update(stdout_sha256=_digest(stdout), stdout_bytes=len(stdout),
                 stderr=clean(err.getvalue()))
    written = None
    if target is not None and Path(target).exists():
        written = clean(Path(target).read_text(encoding="utf-8"))
    entry.update(out_sha256=None if written is None else _digest(written),
                 out_bytes=None if written is None else len(written))
    return entry


def sweep(src: Path, work: Path) -> list[dict]:
    sys.path.insert(0, str(src.resolve()))
    main = importlib.import_module("seqscreen.cli").main
    replays: dict[str, int] = {}
    _record_replays(replays)
    names = {str(work): "<work>", str(MODELS): "<models>",
             str(TOOL_MODELS): "<tool-models>"}
    entries = [_run(main, argv, names, replays)
               for argv in base_commands(work)]
    for path in sorted(work.glob("*.model")):
        for argv in _on_file(str(path), False):
            entries.append(_run(main, argv, names, replays))
        for kind in KINDS:
            entries.append(_run(main, ["transform", str(path), "--kind",
                                       kind], names, replays))
    return entries


def diff(a: Path, b: Path) -> int:
    """Print the commands whose compared fields differ; 1 if any do. Then
    list the commands whose run time changed by ``TIMING_RATIO`` or more,
    and those whose replay record changed, neither of which changes the
    exit code."""
    left = {e["argv"]: e for e in json.loads(a.read_text())["commands"]}
    right = {e["argv"]: e for e in json.loads(b.read_text())["commands"]}
    n_diff = 0
    timing, replays = [], []
    for argv in list(left) + [k for k in right if k not in left]:
        if argv not in left or argv not in right:
            side = "only in " + (str(a) if argv in left else str(b))
            print(f"{argv}: {side}")
            n_diff += 1
            continue
        fields = [f for f in COMPARED if left[argv][f] != right[argv][f]]
        if fields:
            print(f"{argv}: {', '.join(fields)} differ")
            n_diff += 1
        s_a, s_b = left[argv]["seconds"], right[argv]["seconds"]
        if (max(s_a, s_b) >= TIMING_FLOOR
                and max(s_a, s_b) >= TIMING_RATIO * min(s_a, s_b)):
            timing.append(f"  {argv}: {s_a:.3f} -> {s_b:.3f} s")
        r_a, r_b = (e.get("replays", {}) for e in (left[argv], right[argv]))
        if r_a != r_b:
            replays.append(f"  {argv}: {json.dumps(r_a, sort_keys=True)} "
                           f"-> {json.dumps(r_b, sort_keys=True)}")
    n_all = len(set(left) | set(right))
    print(f"{n_diff} of {n_all} commands differ")
    if timing:
        print(f"run time changed {TIMING_RATIO:g}x or more in {len(timing)} "
              f"of {n_all} commands (not compared):", *timing, sep="\n")
    if replays:
        print(f"replays changed in {len(replays)} of {n_all} commands "
              "(not compared):", *replays, sep="\n")
    return 1 if n_diff else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path,
                        help="the src/ directory of the tree to sweep")
    parser.add_argument("--manifest", type=Path,
                        help="where to write the manifest (JSON)")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the derived files "
                             "(default: a temporary one, removed after)")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two manifests instead of sweeping")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.src is None or args.manifest is None:
        parser.error("a sweep needs --src and --manifest")
    with contextlib.ExitStack() as stack:
        work = args.work
        if work is None:
            work = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        work.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        entries = sweep(args.src, work.resolve())
        seconds = time.perf_counter() - t0
    args.manifest.write_text(json.dumps(
        {"src": str(args.src), "seconds": round(seconds, 2),
         "commands": entries}, indent=1) + "\n")
    print(f"{len(entries)} commands in {seconds:.1f} s -> {args.manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
