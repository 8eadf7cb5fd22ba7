"""Command-line front end.

Four subcommands, all reading a model file and writing to stdout or --out:

    check      regularity checks; exit 0 only if A0-A2 and the stochastic
               ordering all hold
    verify     one of the three verification suites; exit 1 on a measured
               discrepancy
    transform  derive a relabeled model file
    grid       dump one evaluated field as CSV

Exit codes are uniform: 0 success, 1 honest negative finding (a failed
regularity check, a discrepancy verdict, a relabeling that cannot be
built or written), 2 unusable input (unreadable or malformed file, a model
whose evaluations abort or fail numerically, bad flags, a closed stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .errors import (
    ConstructionError,
    IntegrabilityError,
    LoadError,
    NUMERIC_CAUSES,
    SelfCheckError,
    ToolkitError,
)
from .model_core import validate_model
from .modelfile import RELABELING_KINDS, dumps, load
from .regularity import FIELD_NAMES, compute_field, regularity_report

__all__ = ["main"]


def _fail(message: str, code: int) -> int:
    print(f"seqscreen: error: {message}", file=sys.stderr)
    return code


def _located(exc: ToolkitError) -> str:
    """The error's message, and the file line and key a LoadError names."""
    if not isinstance(exc, LoadError):
        return str(exc)
    where = [f"line {exc.line}"] if exc.line is not None else []
    if exc.key is not None:
        where.append(f"key {exc.key!r}")
    return f"{exc} ({', '.join(where)})" if where else str(exc)


def _emit(chunks, out: str | None) -> int:
    """Write an iterable of strings to ``out``, or to stdout without one."""
    try:
        if out is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
    except OSError as exc:
        if out is not None:
            return _fail(f"cannot write {out!r}: {exc}", 2)
        # a closed pipe: what is left unwritten goes nowhere, so the
        # interpreter's own flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _fail(f"cannot write to stdout: {exc}", 2)
    return 0


def _parse_grid_flag(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"grid must look like 129x129, got {text!r}")
    try:
        nv, nV = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like 129x129, got {text!r}") from None
    if nv < 2 or nV < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 points per axis")
    return nv, nV


def _parse_finite_flag(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}")
    return x


def _load_model(args):
    """Read the model file and fold CLI overrides into its grid/tolerances."""
    model, grid, tol = load(args.modelfile)
    if getattr(args, "grid", None) is not None:
        nv, nV = args.grid
        grid = dataclasses.replace(grid, v_points=nv, V_points=nV)
    if getattr(args, "slack", None) is not None:
        tol = dataclasses.replace(tol, monotonicity_slack=args.slack)
    return model, grid, tol


def _cmd_check(args) -> int:
    model, grid, tol = _load_model(args)
    validation = validate_model(model, grid, tol)
    if not validation.passed:
        issues = "; ".join(validation.issues())
        return _fail(f"model failed validation: {issues}", 2)
    report = regularity_report(model, grid, tol)
    rc = _emit([report.to_json() + "\n"], args.out)
    if rc:
        return rc
    return 0 if (report.classic_regular and report.fosd_ok) else 1


def _cmd_verify(args) -> int:
    from .propositions import verify

    model, grid, tol = _load_model(args)
    result = verify(model, args.prop, grid, tol)
    if isinstance(result, dict):  # suite 3 reports both directions
        payload = {d: r.to_dict() for d, r in result.items()}
        verdicts = [r.verdict for r in result.values()]
    else:
        payload, verdicts = result.to_dict(), [result.verdict]
    rc = _emit([json.dumps(payload, indent=2) + "\n"], args.out)
    if rc:
        return rc
    return 1 if "discrepancy" in verdicts else 0


def _cmd_transform(args) -> int:
    from .transforms import TransformedModel, apply_relabeling, make_relabeling

    model, grid, tol = _load_model(args)
    if isinstance(model, TransformedModel):
        return _fail(
            "the model file already carries a transform section; "
            "derive from the base file instead", 2)
    kwargs = {}
    if args.w_lo is not None:
        kwargs["w_lo"] = args.w_lo
    if args.slope is not None:
        kwargs["slope"] = args.slope
    if args.intercept is not None:
        kwargs["intercept"] = args.intercept
    try:
        rel = make_relabeling(model, args.kind, **kwargs)
        text = dumps(apply_relabeling(model, rel), grid, tol)
    except (IntegrabilityError, ConstructionError, SelfCheckError) as exc:
        return _fail(str(exc), 1)
    return _emit([text], args.out)


def _cmd_grid(args) -> int:
    model, grid, tol = _load_model(args)
    field = compute_field(model, args.what, grid, tol)
    # The V axis is formatted once; joining a row's v in front of each
    # piece gives that row's printf template, and each row is written as it
    # is filled, so neither a string per point nor the whole CSV is held.
    pieces = [""] + [",%.17g,%%.17g\n" % V for V in field.V.tolist()]

    def rows():
        yield "v,V,value\n"
        for v, values in zip(field.v.tolist(), field.values):
            yield ("%.17g" % v).join(pieces) % tuple(values.tolist())

    return _emit(rows(), args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqscreen",
        description="screening-model regularity checks and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("modelfile", help="path to a model file")
        p.add_argument("--grid", type=_parse_grid_flag, default=None,
                       metavar="NxM",
                       help="evaluation lattice size, e.g. 129x129")
        p.add_argument("--slack", type=float, default=None, metavar="FLOAT",
                       help="monotonicity slack override")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write output here instead of stdout")

    p = sub.add_parser("check", help="run the regularity checks")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="run one verification suite")
    common(p)
    p.add_argument("--prop", type=int, choices=(1, 2, 3), required=True,
                   help="which claim to verify")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", help="derive a relabeled model file")
    common(p)
    p.add_argument("--kind", choices=RELABELING_KINDS, required=True,
                   help="relabeling to apply")
    p.add_argument("--w-lo", type=_parse_finite_flag, dest="w_lo",
                   metavar="FLOAT", help="relabeled axis origin")
    p.add_argument("--slope", type=_parse_finite_flag, metavar="FLOAT",
                   help="affine slope (affine kind only)")
    p.add_argument("--intercept", type=_parse_finite_flag, metavar="FLOAT",
                   help="affine intercept (affine kind only)")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("grid", help="dump one field on the lattice as CSV")
    common(p)
    p.add_argument("--what", choices=FIELD_NAMES, required=True,
                   help="which field to evaluate")
    p.set_defaults(func=_cmd_grid)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        # Every deliberate failure the subcommands do not map themselves
        # (unreadable input, an aborted or out-of-domain evaluation) is
        # unusable input.
        return _fail(_located(exc), 2)
    except NUMERIC_CAUSES as exc:
        # a numeric failure no evaluator named (a zero slope, an overflow)
        return _fail(f"numeric failure: {type(exc).__name__}: {exc}", 2)
    except MemoryError:
        asked = "--grid %dx%d" % args.grid if args.grid else "the file's grid"
        return _fail(f"out of memory evaluating the lattice of {asked}", 2)
