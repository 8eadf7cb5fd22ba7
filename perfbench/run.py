"""seqscreen benchmark runner.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lattice --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the runner is one closed-loop client of the command
line: it runs the workload's commands one ``python -m seqscreen``
subprocess at a time, in passes, until the next pass would overrun
``--seconds``, and reports end-to-end metrics (medians over the passes).
Before the passes it times fresh interpreters importing ``seqscreen.cli``
(``setup_s``). With ``--trace 1`` it replays the same commands in-process
through ``seqscreen.cli.main``, alternating untraced and traced passes,
and reports per-layer metrics from the tracer.

Every run compares the outputs of its first pass with the references in
``references/`` (exactly on seed 0 and on the unvaried edge models,
verdicts only on other seeds) and checks that later passes reproduce the
first byte for byte. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
commands that failed although their reference run did not. Failures that
the reference also shows (the known defects of the ``edge`` workload) are
listed by name above that line and counted in ``cli.ops_failed_frac``.

``--record`` writes the references from one seed-0 pass instead.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads  # noqa: E402

REFERENCE_DIR = HERE / "references"
SETUP_LAUNCHES = 5
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 60.0
IMPORT_PROBE = "import seqscreen.cli"


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# running one command


def run_subprocess(argv: list[str], env: dict, cwd: Path, stdout_path: Path,
                   stderr_path: Path) -> dict:
    """Run ``python -m seqscreen argv`` and wait for it with os.wait4."""
    killed = threading.Event()
    with open(stdout_path, "wb") as fo, open(stderr_path, "wb") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "seqscreen", *argv],
                                stdout=fo, stderr=fe, env=env, cwd=cwd)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        secs = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "secs": secs,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": stdout_path.read_text(encoding="utf-8"),
            "stderr": stderr_path.read_text(encoding="utf-8"),
            "timed_out": killed.is_set()}


def run_inprocess(main, argv: list[str]) -> dict:
    """Run ``main(argv)`` with stdout and stderr captured.

    An exception escaping ``main`` is what the interpreter would print as a
    traceback before exiting 1, so it is recorded the same way.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (
                0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            rc = 1
    return {"rc": rc, "secs": perf_counter() - t0, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "timed_out": False}


def finish_result(cmd: str, argv: list[str], res: dict) -> dict:
    """Add the output text, its digest and the failure class to a result."""
    text = res["stdout"]
    target = workloads.out_path(argv)
    if target is not None and os.path.exists(target):
        with open(target, encoding="utf-8") as fh:
            text += fh.read()
    res["cmd"] = cmd
    res["sub"] = argv[0]
    res["text"] = text
    res["digest"] = hashlib.sha256(text.encode()).hexdigest()
    res["failure"] = compare.classify_failure(res["rc"], res["stderr"],
                                              res["timed_out"])
    return res


# ---------------------------------------------------------------------------
# a workload in a checkout


class Workload:
    def __init__(self, name: str, seed: int, root: Path):
        self.name = name
        self.seed = seed
        self.root = root
        self.work = HERE / "work" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.model_dir = self.work / "models"
        self.derived_dir = self.work / "derived"
        self.out_dir = self.work / "out"
        for d in (self.model_dir, self.derived_dir, self.out_dir):
            d.mkdir(parents=True)
        for model in workloads.model_names(name):
            (self.model_dir / f"{model}.model").write_text(
                workloads.render_model(model, seed), encoding="utf-8")
        self.commands = [(cmd, workloads.expand(cmd, self.model_dir,
                                                self.derived_dir))
                         for cmd in workloads.WORKLOADS[name]]
        self.exact = (seed == workloads.DEFAULT_SEED
                      or not workloads.is_varied(name))
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        self.env = env

    def clear_outputs(self) -> None:
        for _, argv in self.commands:
            target = workloads.out_path(argv)
            if target is not None and os.path.exists(target):
                os.remove(target)

    def subprocess_pass(self) -> list[dict]:
        self.clear_outputs()
        results = []
        for i, (cmd, argv) in enumerate(self.commands):
            res = run_subprocess(argv, self.env, self.root,
                                 self.out_dir / f"{i}.stdout",
                                 self.out_dir / f"{i}.stderr")
            results.append(finish_result(cmd, argv, res))
        return results

    def inprocess_pass(self, main, tracer=None) -> list[dict]:
        """One pass through ``main`` in this process; with a tracer, each
        command is bracketed for its per-command counters."""
        self.clear_outputs()
        results = []
        for cmd, argv in self.commands:
            if tracer is not None:
                tracer.begin_command(argv)
            try:
                results.append(finish_result(cmd, argv,
                                             run_inprocess(main, argv)))
            finally:
                if tracer is not None:
                    tracer.end_command()
        return results

    def time_imports(self, launches: int) -> list[float]:
        """Wall times of fresh interpreters importing seqscreen.cli; one
        unmeasured launch first writes the bytecode caches."""
        times = []
        for i in range(launches + 1):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env,
                           cwd=self.root, check=True)
            if i:
                times.append(perf_counter() - t0)
        return times


def load_references(name: str) -> list[dict]:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        refs = json.load(fh)["commands"]
    if [r["cmd"] for r in refs] != workloads.WORKLOADS[name]:
        raise ValueError(f"references/{name}.json does not match the "
                         "workload's command list; record it again")
    return refs


def entry(res: dict) -> dict:
    """What the references store of one command's result."""
    summary = None
    if res["failure"] is None:
        summary = compare.summarize(res["sub"], res["text"])
    return {"cmd": res["cmd"], "rc": res["rc"], "failure": res["failure"],
            "summary": summary}


def judge_passes(passes: list[list[dict]], refs: list[dict],
                 exact: bool) -> dict:
    """Compare the first pass with the references and every later pass
    with the first, byte for byte."""
    first = passes[0]
    verdicts = [compare.judge(ref, entry(res), exact)
                for ref, res in zip(refs, first)]
    for later in passes[1:]:
        for i, (a, b) in enumerate(zip(first, later)):
            if a["digest"] != b["digest"] and verdicts[i] is None:
                verdicts[i] = "mismatch: output differs between passes"
    unexpected = sum(v is not None and v.startswith("unexpected")
                     for v in verdicts)
    mismatches = sum(v is not None and v.startswith("mismatch")
                     for v in verdicts)
    known = [(res["cmd"], res["failure"]) for ref, res in zip(refs, first)
             if res["failure"] is not None and ref["failure"] is not None]
    return {"verdicts": verdicts, "unexpected": unexpected,
            "mismatches": mismatches, "known": known}


def log_pass(name: str, results: list[dict], verdicts: list) -> None:
    for res, verdict in zip(results, verdicts):
        status = "ok" if verdict is None else verdict
        if res["failure"] is not None and verdict is None:
            status = f"known failure: {res['failure']}"
        print(f"[{name}] {res['secs']:7.3f}s rc={res['rc']} {res['cmd']}"
              f" -> {status}")


def report(correct: bool, attempted: int, failed: int,
           metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# the two kinds of run


def another_pass(walls: list[float], elapsed: float, seconds: float) -> bool:
    """Whether one more pass fits in --seconds, judged by the mean pass so
    far. Until MIN_PASSES have run, a quarter more is allowed, since a
    median of fewer passes does not shed a slow one."""
    limit = seconds if len(walls) >= MIN_PASSES else 1.25 * seconds
    return elapsed + statistics.fmean(walls) <= limit


def command_medians(passes: list[list[dict]], key: str) -> list[float]:
    """For each command, the median of ``key`` over the passes."""
    return [statistics.median(p[i][key] for p in passes)
            for i in range(len(passes[0]))]


def run_untraced(wl: Workload, seconds: float) -> int:
    refs = load_references(wl.name)
    setup = wl.time_imports(SETUP_LAUNCHES)
    passes: list[list[dict]] = []
    walls: list[float] = []
    start = perf_counter()
    while not passes or another_pass(walls, perf_counter() - start, seconds):
        t0 = perf_counter()
        passes.append(wl.subprocess_pass())
        walls.append(perf_counter() - t0)
    judged = judge_passes(passes, refs, wl.exact)
    log_pass(wl.name, passes[0], judged["verdicts"])
    for cmd, why in judged["known"]:
        print(f"[{wl.name}] known failing command: {cmd} ({why})")
    print(f"[{wl.name}] passes={len(passes)} "
          f"ops_failed={len(judged['known'])}/{len(wl.commands)} "
          f"mismatches={judged['mismatches']} exact={wl.exact}")
    print(f"[{wl.name}] pass walls: " + " ".join(f"{w:.3f}" for w in walls)
          + "; setup launches: " + " ".join(f"{s:.3f}" for s in setup))
    for i, (cmd, _) in enumerate(wl.commands):
        print(f"[{wl.name}] per pass: "
              + " ".join(f"{p[i]['secs']:.3f}" for p in passes) + f" {cmd}")
    metrics = {
        "wall_s": (sum(command_medians(passes, "secs")), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(command_medians(passes, "rss_mb")), "MB"),
    }
    report(judged["unexpected"] == 0 and judged["mismatches"] == 0,
           len(passes) * len(wl.commands),
           judged["unexpected"] * len(passes), metrics)
    return 0


def log_counts(wl: Workload, tr) -> None:
    """One line of counters per command of the first traced pass."""
    dirs = {str(wl.model_dir), str(wl.derived_dir)}
    for argv, counters in tr.command_lines():
        shown = " ".join(Path(a).name if str(Path(a).parent) in dirs else a
                         for a in argv)
        print(f"[{wl.name}] trace {shown}: {counters}")


def import_breakdown(wl: Workload) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           IMPORT_PROBE], env=wl.env, cwd=wl.root,
                          capture_output=True, text=True, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative


def run_traced(wl: Workload, seconds: float) -> int:
    refs = load_references(wl.name)
    sys.path.insert(0, str(wl.root / "src"))
    import seqscreen.cli  # noqa: F401  (the tracer patches it in place)
    import tracer as tracing

    cli = sys.modules["seqscreen.cli"]
    plain_walls, traced_walls = [], []
    plain_passes, traced_passes, layer = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        plain_passes.append(wl.inprocess_pass(cli.main))
        plain_walls.append(perf_counter() - t0)
        tr = tracing.Tracer()
        tr.install()
        try:
            t0 = perf_counter()
            traced_passes.append(wl.inprocess_pass(cli.main, tr))
            traced_walls.append(perf_counter() - t0)
        finally:
            tr.uninstall()
        layer.append(tr.metrics())
        if len(layer) == 1:
            log_counts(wl, tr)
        pairs = [a + b for a, b in zip(plain_walls, traced_walls)]
        if perf_counter() - start + statistics.fmean(pairs) > seconds:
            break

    judged = judge_passes(plain_passes + traced_passes, refs, wl.exact)
    log_pass(wl.name, plain_passes[0], judged["verdicts"])
    metrics = {name: (statistics.median(m[name][0] for m in layer),
                      layer[0][name][1]) for name in layer[0]}
    secs = command_medians(plain_passes, "secs")
    for sub in tracing.SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = (sum(
            s for s, (_, argv) in zip(secs, wl.commands) if argv[0] == sub),
            "s")
    first = plain_passes[0]
    metrics["cli.ops_failed_frac"] = (
        sum(r["failure"] is not None for r in first) / len(first), "ratio")
    metrics["cli.mismatch_count"] = (judged["mismatches"], "count")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls)
        - 1.0, "ratio")
    imports = [import_breakdown(wl) for _ in range(3)]
    metrics["import.cli_s"] = (statistics.median(
        m.get("seqscreen.cli", 0.0) for m in imports), "s")
    metrics["import.scipy_special_s"] = (statistics.median(
        m.get("scipy.special", 0.0) for m in imports), "s")
    n_passes = len(plain_passes) + len(traced_passes)
    report(judged["unexpected"] == 0 and judged["mismatches"] == 0,
           n_passes * len(wl.commands), judged["unexpected"] * n_passes,
           metrics)
    return 0


def record(wl: Workload) -> int:
    entries = [entry(res) for res in wl.subprocess_pass()]
    for e in entries:
        print(f"[{wl.name}] rc={e['rc']} {e['cmd']}"
              + (f" -> {e['failure']}" if e["failure"] else ""))
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{wl.name}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": wl.seed, "commands": entries},
                  fh, separators=(",", ":"))
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="write references/<workload>.json from one pass")
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "seqscreen" / "cli.py").is_file():
        return _fail(f"no seqscreen sources under {root / 'src'}; run from "
                     "the root of a source checkout")
    wl = Workload(args.workload, args.seed, root)
    if args.record:
        if args.seed != workloads.DEFAULT_SEED:
            return _fail("references are recorded on the default seed")
        return record(wl)
    if args.trace:
        return run_traced(wl, args.seconds)
    return run_untraced(wl, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
