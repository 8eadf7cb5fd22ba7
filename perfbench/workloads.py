"""Workload definitions: the model files each workload reads, how the
workload seed varies them, and the command list of one pass.

Seed 0 (the default) uses the files in ``models/`` exactly as stored; they
reproduce the test fixtures. Any other seed rewrites the values named by a
file's ``# vary:`` lines, drawing from the stated range with a generator
keyed by (seed, model name), so the same seed always gives the same files.
The ``stress_*`` and ``tablekernel`` models carry no ``# vary:`` line and
never change, so their known defects show on every seed.

A command token ``@name`` stands for the model file ``name`` as written
for this seed; ``%name`` stands for a derived model file that an earlier
command of the same pass writes with ``--out``.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

MODELS_DIR = Path(__file__).resolve().parent / "models"
DEFAULT_SEED = 0

# Every workload runs all four subcommands, so that every per-subcommand
# and per-layer figure of the traced run exists on every workload; the
# off-theme commands are single, small doses.
WORKLOADS: dict[str, list[str]] = {
    # Lattice evaluation and monotone scans do most of the work; quadrature
    # does almost none. check builds 4 bundles and writes JSON, grid builds
    # 1 bundle and writes a 263k-row CSV at 513x513, and the two suites
    # build 3 and 6 bundles of one lattice.
    "lattice": [
        "transform @betanormal --kind affine --slope 2 --intercept 1 "
        "--out %bn_affine",
        "check @power --grid 257x257",
        "check @laplace001 --grid 257x257",
        "grid @power --what psi --grid 513x513",
        "grid %bn_affine --what gamma --grid 257x257",
        "verify @power --prop 2",
        "verify @laplace001 --prop 3",
    ],
    # The three verification suites: redundant bundles (3 builds for
    # suite 2, 6 for suite 3), relabeling construction, the shifted-cdf
    # diagnostic and conditional means.
    "suites": [
        "verify @logistic --prop 1",
        "verify @logistic --prop 3",
        "verify @power --prop 2 --grid 193x193",
        "verify @tablesig --prop 1",
        "check @betanormal --grid 65x65",
        "transform @tablesig --kind integrated_hazard --out %tab_ih",
        "grid %tab_ih --what psi --grid 65x65",
    ],
    # Relabeling construction (quadrature and bisection) for every kind,
    # then commands on the derived files this pass wrote: loading one
    # rebuilds its relabeling, and the lattice reads its inverse cache.
    "relabel": [
        "transform @logistic --kind mean --out %log_mean",
        "transform @logistic --kind inverse_hazard_integral --out %log_ihi",
        "transform @betanormal --kind integrated_hazard --out %bn_ih",
        "transform @tablesig --kind runningmax_hazard --out %tab_rm",
        "transform @power --kind affine --slope 0.5 --intercept 2 "
        "--out %pow_affine",
        "check %log_mean",
        "check %log_ihi --grid 65x65",
        "check %tab_rm --grid 65x65",
        "verify %pow_affine --prop 2",
        "grid %bn_ih --what gamma --grid 65x65",
    ],
    # The ROADMAP stress models and the table kernel: quadrature give-ups,
    # uncaught exceptions and the CLI error boundary.
    "edge": [
        "check @stress_power05",
        "check @stress_beta0502",
        "check @stress_beta0305",
        "verify @stress_power05 --prop 1",
        "verify @stress_power05 --prop 3",
        "verify @stress_beta0502 --prop 1",
        "transform @stress_power05 --kind runningmax_hazard --out %pow05_rm",
        "transform @stress_beta0502 --kind runningmax_hazard",
        "transform @stress_beta0305 --kind runningmax_hazard",
        "verify @tablekernel --prop 2 --grid 65x65",
        "grid %pow05_rm --what psi --grid 65x65",
    ],
}

_VARY_RE = re.compile(
    r"^#\s*vary:\s*(\w+)\.([\w.]+)\s+(shift|scale)\s+(\S+)\s+(\S+)\s*$")
_NUMBER_RE = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
_SECTION_RE = re.compile(r"^\[(\w+)\]\s*$")
_KEY_RE = re.compile(r"^([\w.]+)\s*=\s*(.*)$")


def model_names(workload: str) -> list[str]:
    """Base model names the workload's commands read, in first-use order."""
    names: list[str] = []
    for cmd in WORKLOADS[workload]:
        for tok in cmd.split():
            if tok.startswith("@") and tok[1:] not in names:
                names.append(tok[1:])
    return names


def _vary_value(value: str, mode: str, lo: float, hi: float,
                rng: random.Random) -> str:
    """Perturb the numbers of one ``key = value`` line.

    ``shift`` adds one draw to every number (a support keeps its width);
    ``scale`` multiplies each number by its own draw, except table nodes
    (the part before ``:``), which stay put so the nodes stay ordered.
    """
    if mode == "shift":
        d = rng.uniform(lo, hi)
        return _NUMBER_RE.sub(lambda m: repr(float(m.group()) + d), value)
    out = []
    for tok in value.split():
        if ":" in tok:
            node, _, dens = tok.partition(":")
            out.append(f"{node}:{float(dens) * rng.uniform(lo, hi)!r}")
        else:
            out.append(_NUMBER_RE.sub(
                lambda m: repr(float(m.group()) * rng.uniform(lo, hi)), tok))
    return " ".join(out)


def render_model(name: str, seed: int) -> str:
    """Model file text for this seed; seed 0 returns the stored file."""
    text = (MODELS_DIR / f"{name}.model").read_text(encoding="utf-8")
    if seed == DEFAULT_SEED:
        return text
    lines = text.splitlines()
    rules = {}
    for line in lines:
        m = _VARY_RE.match(line)
        if m:
            section, key, mode, lo, hi = m.groups()
            rules[(section, key)] = (mode, float(lo), float(hi))
    rng = random.Random(f"{seed}:{name}")
    section = None
    out = []
    for line in lines:
        m = _SECTION_RE.match(line)
        if m:
            section = m.group(1)
        else:
            m = _KEY_RE.match(line)
            if m and (section, m.group(1)) in rules:
                mode, lo, hi = rules[(section, m.group(1))]
                line = f"{m.group(1)} = " + _vary_value(m.group(2), mode, lo,
                                                        hi, rng)
        out.append(line)
    return "\n".join(out) + "\n"


def is_varied(workload: str) -> bool:
    """Whether any model of the workload changes with the seed."""
    return any("# vary:" in (MODELS_DIR / f"{n}.model").read_text()
               for n in model_names(workload))


def expand(cmd: str, model_dir: Path, derived_dir: Path) -> list[str]:
    """argv for one command, with @ and % tokens replaced by paths."""
    argv = []
    for tok in cmd.split():
        if tok.startswith("@"):
            tok = str(model_dir / f"{tok[1:]}.model")
        elif tok.startswith("%"):
            tok = str(derived_dir / f"{tok[1:]}.model")
        argv.append(tok)
    return argv


def out_path(argv: list[str]) -> str | None:
    """The --out target of a command, if it has one."""
    if "--out" in argv:
        return argv[argv.index("--out") + 1]
    return None
