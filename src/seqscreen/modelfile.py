"""Plain-text model specifications.

A model file is a small sectioned key/value format:

    [signal]
    family = uniform
    support = 0.0 1.0

    [kernel]
    family = additive_noise
    noise.family = logistic
    noise.scale = 1.0

    [grid]
    v_points = 129
    V_points = 129

    [tolerances]
    monotonicity = 1e-8

Blank lines and full-line ``#`` comments are skipped. A line starting with
whitespace continues the previous key's value, which is how large tables stay
readable. Table signals pack ``node:density`` pairs into ``params``; table
kernels pack three token groups ``v ... ; V ... ; H ...`` with the cdf values
row-major. Files produced by a relabeling carry an extra ``[transform]``
section that records how to rebuild the mapped model from the base one.

This module alone reads and writes the text of every section, the
``[transform]`` one included: ``transforms`` takes that section as
numbers (``rebuild_from_section``) and gives them back
(``transform_section``), so a bad token is reported here with its line.

Anything unknown (section, key, or a key a family does not use) raises
``LoadError`` naming the offender and its line, so typos fail loudly instead
of silently falling back to a default.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ConstructionError, IntegrabilityError, LoadError, SelfCheckError
from .model_core import (
    GridSpec,
    ScreeningModel,
    ToleranceConfig,
    make_kernel,
    make_signal,
)

__all__ = ["load", "loads", "dumps"]

# the relabelings a [transform] section can name
RELABELING_KINDS = (
    "inverse_hazard_integral",
    "integrated_hazard",
    "runningmax_hazard",
    "mean",
    "affine",
)

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\]\s*$")
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*)\s*=\s*(.*)$")


@dataclass
class _Entry:
    value: str
    line: int
    key: str


def _parse(text: str) -> dict[str, dict[str, _Entry]]:
    sections: dict[str, dict[str, _Entry]] = {}
    current: dict[str, _Entry] | None = None
    current_name = ""
    last_key: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            last_key = None
            continue
        if raw[0] in " \t":
            if current is None or last_key is None:
                raise LoadError("continuation line with nothing to continue",
                                line=lineno)
            entry = current[last_key]
            entry.value = f"{entry.value} {raw.strip()}".strip()
            continue
        m = _SECTION_RE.match(raw)
        if m:
            name = m.group(1)
            if name not in _SCHEMA:
                raise LoadError(
                    f"unknown section [{name}]; expected one of "
                    f"{sorted(_SCHEMA)}", line=lineno)
            if name in sections:
                raise LoadError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current = sections[name]
            current_name = name
            last_key = None
            continue
        m = _KEY_RE.match(raw)
        if m:
            if current is None:
                raise LoadError("key appears before any section header",
                                line=lineno)
            key, value = m.group(1), m.group(2).strip()
            if key not in _SCHEMA[current_name]:
                raise LoadError(
                    f"unknown key {key!r} in [{current_name}]; expected one "
                    f"of {sorted(_SCHEMA[current_name])}",
                    line=lineno, key=key)
            if key in current:
                raise LoadError(f"duplicate key {key!r} in [{current_name}]",
                                line=lineno, key=key)
            current[key] = _Entry(value, lineno, key)
            last_key = key
            continue
        raise LoadError(f"cannot parse line: {raw.strip()!r}", line=lineno)
    return sections


def _require(section: dict[str, _Entry], key: str, where: str) -> _Entry:
    if key not in section:
        raise LoadError(f"[{where}] is missing required key {key!r}", key=key)
    return section[key]


def _reject(section: dict[str, _Entry], key: str, why: str) -> None:
    if key in section:
        raise LoadError(why, line=section[key].line, key=key)


def _as_float(entry: _Entry) -> float:
    try:
        return float(entry.value)
    except ValueError:
        raise LoadError(f"{entry.key} must be a number, got {entry.value!r}",
                        line=entry.line, key=entry.key) from None


def _as_int(entry: _Entry) -> int:
    try:
        return int(entry.value)
    except ValueError:
        raise LoadError(f"{entry.key} must be an integer, got {entry.value!r}",
                        line=entry.line, key=entry.key) from None


def _float_tokens(tokens: list[str], entry: _Entry) -> list[float]:
    out = []
    for tok in tokens:
        try:
            out.append(float(tok))
        except ValueError:
            raise LoadError(
                f"{entry.key} contains a non-numeric token {tok!r}",
                line=entry.line, key=entry.key) from None
    return out


def _numbers(entry: _Entry, count: int) -> tuple[float, ...]:
    """The entry's value as exactly ``count`` (one or two) numbers."""
    parts = entry.value.split()
    if len(parts) != count:
        words = ("one number", "two numbers")[count - 1]
        raise LoadError(f"{entry.key} needs exactly {words}",
                        line=entry.line, key=entry.key)
    return tuple(_float_tokens(parts, entry))


def _build_signal(section: dict[str, _Entry]):
    family = _require(section, "family", "signal").value
    if family == "uniform":
        _reject(section, "params", "uniform signal takes no params")
        entry = _require(section, "support", "signal")
        return _wrap_construction(
            lambda: make_signal("uniform", support=_numbers(entry, 2)),
            entry)
    if family == "beta":
        entry = _require(section, "params", "signal")
        kv: dict[str, float] = {}
        for tok in entry.value.split():
            if "=" not in tok:
                raise LoadError(f"beta params expect name=value, got {tok!r}",
                                line=entry.line, key="params")
            name, _, val = tok.partition("=")
            kv[name] = _float_tokens([val], entry)[0]
        extra = set(kv) - {"alpha", "beta"}
        if extra:
            raise LoadError(f"beta params do not use {sorted(extra)}",
                            line=entry.line, key="params")
        support = (_numbers(section["support"], 2)
                   if "support" in section else None)
        return _wrap_construction(
            lambda: make_signal("beta", support=support, **kv), entry)
    if family == "table":
        _reject(section, "support",
                "table signal derives its support from the nodes")
        entry = _require(section, "params", "signal")
        nodes, dens = [], []
        for tok in entry.value.split():
            if ":" not in tok:
                raise LoadError(
                    f"table signal params expect node:density, got {tok!r}",
                    line=entry.line, key="params")
            a, _, b = tok.partition(":")
            nodes.append(_float_tokens([a], entry)[0])
            dens.append(_float_tokens([b], entry)[0])
        return _wrap_construction(
            lambda: make_signal("table", nodes=nodes, densities=dens), entry)
    raise LoadError(f"unknown signal family {family!r}",
                    line=section["family"].line, key="family")


def _build_kernel(section: dict[str, _Entry]):
    family = _require(section, "family", "kernel").value
    if family == "additive_noise":
        _reject(section, "params", "additive_noise kernel takes no params")
        noise = section.get("noise.family")
        scale = section.get("noise.scale")
        law = {} if noise is None else {"noise": noise.value}
        scaled = ({} if scale is None
                  else {"scale": _as_float(scale)})
        # the law alone first, so that each entry's error names its line
        _wrap_construction(lambda: make_kernel("additive_noise", **law),
                           noise or section["family"])
        return _wrap_construction(
            lambda: make_kernel("additive_noise", **law, **scaled),
            scale or section["family"])
    if family in ("power", "exp_tilt"):
        for key in ("params", "noise.family", "noise.scale"):
            _reject(section, key, f"{family} kernel does not use {key!r}")
        return make_kernel(family)
    if family == "table":
        for key in ("noise.family", "noise.scale"):
            _reject(section, key, f"table kernel does not use {key!r}")
        entry = _require(section, "params", "kernel")
        groups: dict[str, list[float]] = {}
        for chunk in entry.value.split(";"):
            parts = chunk.split()
            if not parts:
                continue
            tag = parts[0]
            if tag not in ("v", "V", "H") or tag in groups:
                raise LoadError(
                    "table kernel params expect three groups "
                    "'v ... ; V ... ; H ...'", line=entry.line, key="params")
            groups[tag] = _float_tokens(parts[1:], entry)
        if set(groups) != {"v", "V", "H"}:
            raise LoadError("table kernel params need all of v, V, H groups",
                            line=entry.line, key="params")
        nv, nV = len(groups["v"]), len(groups["V"])
        flat = groups["H"]
        if len(flat) != nv * nV:
            raise LoadError(
                f"table kernel H has {len(flat)} values, expected "
                f"{nv} * {nV} = {nv * nV}", line=entry.line, key="params")
        rows = [flat[i * nV:(i + 1) * nV] for i in range(nv)]
        return _wrap_construction(
            lambda: make_kernel("table", v_nodes=groups["v"],
                                V_nodes=groups["V"], H=rows), entry)
    raise LoadError(f"unknown kernel family {family!r}",
                    line=section["family"].line, key="family")


def _fmt(x: float) -> str:
    """A number as the file writes it: the shortest repr that reads back."""
    return repr(float(x))


def _wrap_construction(build, entry: _Entry):
    try:
        return build()
    except ConstructionError as exc:
        raise LoadError(str(exc), line=entry.line, key=entry.key) from exc


# The [grid] and [tolerances] sections: each file key with the config field
# it sets, its parser and its formatter, in file order.
_CONFIG_SECTIONS = {
    "grid": (GridSpec, {
        "v_points": ("v_points", _as_int, str),
        "V_points": ("V_points", _as_int, str),
        "endpoint_margin": ("endpoint_margin", _as_float, _fmt),
        "tail_mass_cut": ("tail_mass_cut", _as_float, _fmt),
    }),
    "tolerances": (ToleranceConfig, {
        "monotonicity": ("monotonicity_slack", _as_float, _fmt),
        "quadrature_rel": ("quadrature_rel", _as_float, _fmt),
    }),
}

_SCHEMA: dict[str, set[str]] = {
    "signal": {"family", "support", "params"},
    "kernel": {"family", "params", "noise.family", "noise.scale"},
    **{name: set(keys) for name, (_, keys) in _CONFIG_SECTIONS.items()},
    "transform": {"kind", "w_lo", "slope", "intercept", "w_support",
                  "phi_table"},
}


def _build_config(name: str, section: dict[str, _Entry]):
    """The section's config, built again as each entry joins, in file
    order, so that an error names the entry that makes it invalid."""
    config, keys = _CONFIG_SECTIONS[name]
    kwargs, built = {}, config()
    for key, (field, parse, _) in keys.items():
        if key in section:
            kwargs[field] = parse(section[key])
            built = _wrap_construction(lambda: config(**kwargs), section[key])
    return built


def _transform_numbers(section: dict[str, _Entry]) -> dict:
    """The [transform] section's numbers by key, as
    ``transforms.rebuild_from_section`` takes them: ``phi_table`` as one
    [v, w, slope] row per ``v:w:slope`` triple."""
    kind = _require(section, "kind", "transform").value
    if kind != "affine":
        for key in ("slope", "intercept"):
            _reject(section, key,
                    "slope/intercept keys only apply to the affine kind")
    out: dict = {"kind": kind}
    for key in ("w_lo", "slope", "intercept"):
        if key in section:
            out[key] = _numbers(section[key], 1)[0]
    if "w_support" in section:
        out["w_support"] = _numbers(section["w_support"], 2)
    if "phi_table" in section:
        entry, rows = section["phi_table"], []
        for tok in entry.value.split():
            pieces = tok.split(":")
            if len(pieces) != 3:
                raise LoadError(
                    f"phi_table entries need v:w:slope, got {tok!r}",
                    line=entry.line, key=entry.key)
            rows.append(_float_tokens(pieces, entry))
        out["phi_table"] = rows
    return out


def loads(text: str) -> tuple[ScreeningModel, GridSpec, ToleranceConfig]:
    """Parse model-file text. Returns (model, grid spec, tolerances)."""
    sections = _parse(text)
    for required in ("signal", "kernel"):
        if required not in sections:
            raise LoadError(f"model file is missing the [{required}] section")
    signal = _build_signal(sections["signal"])
    kernel = _build_kernel(sections["kernel"])
    grid = _build_config("grid", sections.get("grid", {}))
    tolerances = _build_config("tolerances", sections.get("tolerances", {}))
    # the kernel refuses a signal support it cannot condition on
    model = _wrap_construction(lambda: ScreeningModel(signal, kernel),
                               sections["kernel"]["family"])
    if "transform" in sections:
        from .transforms import rebuild_from_section
        entries = sections["transform"]
        numbers = _transform_numbers(entries)
        try:
            model = rebuild_from_section(model, numbers)
        except (ConstructionError, SelfCheckError, IntegrabilityError) as exc:
            key = getattr(exc, "key", None)
            entry = entries.get(key)
            raise LoadError(
                f"[transform] section could not be rebuilt: {exc}",
                line=entry.line if entry else None, key=key) from exc
    return model, grid, tolerances


def load(path: str) -> tuple[ScreeningModel, GridSpec, ToleranceConfig]:
    """Read and parse a model file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise LoadError(f"cannot read model file {path!r}: {exc}") from exc
    return loads(text)


# ---------------------------------------------------------------------------
# writing


def _wrap_tokens(tokens: list[str], per_line: int) -> str:
    lines = []
    for i in range(0, len(tokens), per_line):
        lines.append("    " + " ".join(tokens[i:i + per_line]))
    return "\n".join(lines)


def _signal_lines(signal) -> list[str]:
    desc = signal.describe()
    lines = ["[signal]", f"family = {desc['family']}"]
    if desc["family"] == "uniform":
        lo, hi = desc["support"]
        lines.append(f"support = {_fmt(lo)} {_fmt(hi)}")
    elif desc["family"] == "beta":
        lo, hi = desc["support"]
        lines.append(f"support = {_fmt(lo)} {_fmt(hi)}")
        lines.append(f"params = alpha={_fmt(desc['alpha'])} "
                     f"beta={_fmt(desc['beta'])}")
    elif desc["family"] == "table":
        pairs = [f"{_fmt(v)}:{_fmt(f)}"
                 for v, f in zip(desc["nodes"], desc["densities"])]
        lines.append("params =")
        lines.append(_wrap_tokens(pairs, 4))
    else:
        raise ConstructionError(
            f"cannot serialize signal family {desc['family']!r}")
    return lines


def _kernel_lines(kernel) -> list[str]:
    desc = kernel.describe()
    lines = ["[kernel]", f"family = {desc['family']}"]
    if desc["family"] == "additive_noise":
        lines.append(f"noise.family = {desc['noise']}")
        lines.append(f"noise.scale = {_fmt(desc['scale'])}")
    elif desc["family"] in ("power", "exp_tilt"):
        pass
    elif desc["family"] == "table":
        tokens = (["v"] + [_fmt(x) for x in desc["v_nodes"]] + [";"]
                  + ["V"] + [_fmt(x) for x in desc["V_nodes"]] + [";", "H"])
        for row in desc["H"]:
            tokens.extend(_fmt(x) for x in row)
        lines.append("params =")
        lines.append(_wrap_tokens(tokens, 6))
    else:
        raise ConstructionError(
            f"cannot serialize kernel family {desc['family']!r}")
    return lines


def dumps(model: ScreeningModel, grid: GridSpec | None = None,
          tolerances: ToleranceConfig | None = None) -> str:
    """Render a model (plus optional grid/tolerance overrides) as file text.

    A derived model is written as its base model followed by the
    ``[transform]`` section that rebuilds it.
    """
    section = None
    if hasattr(model, "relabeling"):  # a derived model
        from .transforms import transform_section
        section = transform_section(model)
        model = model.base
    grid = grid or GridSpec()
    tolerances = tolerances or ToleranceConfig()
    lines: list[str] = []
    lines.extend(_signal_lines(model.signal))
    lines.append("")
    lines.extend(_kernel_lines(model.kernel))
    for name, config in (("grid", grid), ("tolerances", tolerances)):
        keys = _CONFIG_SECTIONS[name][1]
        lines += ["", f"[{name}]"] + [
            f"{key} = {fmt(getattr(config, field))}"
            for key, (field, _, fmt) in keys.items()]
    if section is not None:
        lines += ["", "[transform]", f"kind = {section['kind']}"]
        lines += [f"{key} = {_fmt(section[key])}"
                  for key in ("w_lo", "slope", "intercept") if key in section]
        lo, hi = section["w_support"]
        triples = [f"{_fmt(v)}:{_fmt(w)}:{_fmt(p)}"
                   for v, w, p in section["phi_table"]]
        lines += [f"w_support = {_fmt(lo)} {_fmt(hi)}", "phi_table =",
                  _wrap_tokens(triples, 3)]
    return "\n".join(lines) + "\n"
