"""Failure classification and the semantic comparison of command outputs
against the stored references.

A command's output is reduced to a summary before it is stored or
compared: JSON reports are kept whole, a grid CSV is kept as its header,
row and NaN counts, per-column sums and a sample of rows, and a derived
model file as its sections with numeric tokens parsed.
"""

from __future__ import annotations

import json
import math

TRACEBACK_MARK = "Traceback (most recent call last):"
REL_TOL = 1e-9
# Differences this small are roundoff around zero, where a relative test
# has nothing to be relative to.
ABS_TOL = 1e-14
GRID_SAMPLES = 64


def classify_failure(rc: int | None, stderr: str,
                     timed_out: bool = False) -> str | None:
    """Why a command failed, or None if it did not.

    A command fails if it timed out, printed a Python traceback (whatever
    its exit code), exited 2 (unusable input), or exited outside {0, 1, 2}.
    """
    if timed_out:
        return "timeout"
    if TRACEBACK_MARK in stderr:
        last = stderr.strip().splitlines()[-1]
        return f"traceback (exit {rc}): {last[:200]}"
    if rc == 2:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return f"exit 2: {last[:200]}"
    if rc not in (0, 1):
        return f"exit {rc}"
    return None


def _token(tok: str):
    parts = tok.split(":")
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        return tok
    return nums[0] if len(nums) == 1 else nums


def summarize_model_text(text: str) -> dict:
    """Sections of a model file as {section: {key: [tokens]}}."""
    out: dict = {}
    section = None
    key = None
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        if raw[0] in " \t" and section is not None and key is not None:
            out[section][key].extend(_token(t) for t in raw.split())
            continue
        if raw.startswith("["):
            section = raw.strip()[1:-1]
            out[section] = {}
            key = None
            continue
        k, _, v = raw.partition("=")
        key = k.strip()
        out[section][key] = [_token(t) for t in v.split()]
    return out


def summarize_grid_csv(text: str) -> dict:
    lines = text.splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    cols = list(zip(*rows)) if rows else [(), (), ()]
    values = [[float(x) for x in col] for col in cols]
    step = max(1, len(rows) // GRID_SAMPLES)
    picks = sorted(set(range(0, len(rows), step)) | {len(rows) - 1})
    return {
        "header": lines[0] if lines else "",
        "rows": len(rows),
        "nan": sum(math.isnan(x) for x in values[2]),
        "sums": [math.fsum(x for x in col if not math.isnan(x))
                 for col in values],
        "samples": [[i] + [values[c][i] for c in range(3)] for i in picks],
    }


def summarize(subcommand: str, text: str):
    """Reduce one command's output text to what the comparator reads."""
    if not text:
        return None
    if subcommand == "grid":
        return summarize_grid_csv(text)
    if subcommand == "transform":
        return summarize_model_text(text)
    return json.loads(text)


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def diff(ref, got, exact: bool = True, path: str = "") -> list[str]:
    """Paths where ``got`` departs from ``ref``.

    With ``exact`` every field counts: keys, list lengths, booleans and
    strings must match, and numbers must agree to REL_TOL relative. Without
    it (outputs of seed-varied models) only the keys and the booleans and
    strings outside lists are compared: verdicts and ``passed`` flags, not
    the numbers or witness lists, which move with the parameters.
    """
    if isinstance(ref, bool) or isinstance(got, bool):
        return [] if ref == got else [f"{path}: {ref!r} != {got!r}"]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if not exact:
            return []
        if isinstance(ref, int) and isinstance(got, int):
            return [] if ref == got else [f"{path}: {ref} != {got}"]
        return [] if _close(float(ref), float(got)) else [
            f"{path}: {ref!r} != {got!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(set(ref) ^ set(got))} differ"]
        out = []
        for k in ref:
            out += diff(ref[k], got[k], exact, f"{path}.{k}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if not exact:
            return []
        if len(ref) != len(got):
            return [f"{path}: length {len(ref)} != {len(got)}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += diff(a, b, exact, f"{path}[{i}]")
        return out
    if ref == got:
        return []
    if not exact and not (isinstance(ref, str) and isinstance(got, str)):
        return []
    return [f"{path}: {ref!r} != {got!r}"]


def judge(ref: dict, got: dict, exact: bool) -> str | None:
    """Outcome of one command against its reference entry.

    Both are dicts with ``rc``, ``failure`` and ``summary``. Returns None
    when they agree, "unexpected failure: ..." when the reference ran
    cleanly and this run failed, or "mismatch: ..." when the exit code or
    the output differs. A command whose reference run failed is never a
    mismatch: it is scored by the failure count only, so a later fix that
    makes it pass is not held against it.
    """
    if ref["failure"] is not None:
        return None
    if got["failure"] is not None:
        return f"unexpected failure: {got['failure']}"
    if ref["rc"] != got["rc"]:
        return f"mismatch: exit {got['rc']}, reference {ref['rc']}"
    problems = diff(ref["summary"], got["summary"], exact)
    if problems:
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        return "mismatch: " + "; ".join(problems[:3]) + more
    return None
