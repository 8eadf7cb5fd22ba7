"""In-process tracer for the traced run.

The tracer wraps functions of the ``seqscreen`` modules from outside: no
source file is edited. Because the modules import each other's functions
by name (``from .model_core import eval_kernel``), a wrapper must replace
every module attribute that holds the original function, not only the
defining one; ``install`` does that by identity and ``uninstall`` puts the
originals back.

Coarse calls are spans: each records its duration, and its self time is
the duration minus the time of spans directly below it. A metric's
inclusive time counts only its outermost span, so recursion (a conditional
mean that bisects through another conditional mean) is not counted twice.
Hot scalar calls (kernel evaluations, relabeling inverses, quadrature
panels) are only counted.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span metric); every span's self time is charged to
# its metric, and a module's self time is the sum over its metrics.
SPANS = [
    ("cli", "main", "cli.main"),
    ("modelfile", "load", "modelfile.load"),
    ("modelfile", "dumps", "modelfile.dumps"),
    ("model_core", "validate_model", "model_core.validate"),
    ("model_core", "conditional_mean", "model_core.cond_mean"),
    ("model_core", "conditional_mean_derivative", "model_core.cond_mean"),
    ("regularity", "regularity_report", "regularity.report"),
    ("regularity", "check_assumption", "regularity.check"),
    ("regularity", "compute_field", "regularity.field"),
    ("regularity", "_evaluate_bundle", "regularity.bundle"),
    ("numerics", "integrate", "numerics.integrate"),
    ("numerics", "scan_violations", "numerics.scan"),
    ("transforms", "make_relabeling", "transforms.build"),
    ("transforms", "apply_relabeling", "transforms.apply"),
    ("transforms", "_self_check", "transforms.selfcheck"),
    ("transforms", "rebuild_from_section", "transforms.rebuild"),
    ("transforms", "transform_section", "transforms.section"),
    ("propositions", "verify_prop1", "propositions.suite"),
    ("propositions", "verify_prop2", "propositions.suite"),
    ("propositions", "verify_prop3", "propositions.suite"),
    ("propositions", "delta_diagnostic", "propositions.delta"),
]

# (module, attribute, counter) for hot calls that are only counted.
COUNTS = [
    ("model_core", "eval_kernel", "eval_kernel"),
    ("regularity", "hazard", "hazard"),
    ("regularity", "gamma", "gamma"),
    ("regularity", "virtual_value", "virtual_value"),
    ("numerics", "_gk15", "gk15"),
    ("numerics", "differentiate", "differentiate"),
]

SUBCOMMANDS = ("check", "verify", "transform", "grid")

# (counter, label) pairs of the per-command trace lines
COMMAND_COUNTERS = (("eval_kernel", "kernel_evals"),
                    ("regularity.bundle", "bundles"),
                    ("numerics.integrate", "integrals"),
                    ("gk15", "panels"),
                    ("quad_failures", "quad_failures"),
                    ("inverse_calls", "inverses"),
                    ("inverse_bisections", "inverse_bisections"),
                    ("bisect_fevals", "bisect_fevals"),
                    ("model_core.cond_mean", "cond_means"))


class Tracer:
    """Counters and span times for one pass over a command list."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self._stack: list[float] = []
        self._depth: Counter = Counter()
        self._regularity_depth = 0
        self._patched: list[tuple[object, str, object]] = []
        self.quadrature_error: type = Exception
        self._command: dict | None = None
        # per subcommand: kernel evaluations under regularity spans, and
        # the lattice points of the distinct lattices those spans covered
        self.reg_evals: Counter = Counter()
        self.reg_points: Counter = Counter()
        self.verify23 = 0
        self.verify23_rebuilt = 0
        self.per_command: list[tuple[list[str], Counter]] = []

    # -- per-command bookkeeping ------------------------------------------

    def begin_command(self, argv: list[str]) -> None:
        self._command = {"sub": argv[0], "argv": argv, "evals": 0,
                         "lattices": Counter(), "before": Counter(self.counts)}

    def end_command(self) -> None:
        cmd, self._command = self._command, None
        sub = cmd["sub"]
        self.reg_evals[sub] += cmd["evals"]
        self.reg_points[sub] += sum(key[1] * key[2]
                                    for key in cmd["lattices"])
        argv = cmd["argv"]
        self.per_command.append((argv, self.counts - cmd["before"]))
        if sub == "verify" and "--prop" in argv and \
                argv[argv.index("--prop") + 1] in ("2", "3"):
            self.verify23 += 1
            if any(n > 1 for n in cmd["lattices"].values()):
                self.verify23_rebuilt += 1

    # -- wrappers ---------------------------------------------------------

    def _span(self, metric: str, fn):
        stack, depth = self._stack, self._depth
        regularity = metric.startswith("regularity.")
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            stack.append(0.0)
            depth[metric] += 1
            if regularity:
                tracer._regularity_depth += 1
            try:
                return fn(*args, **kwargs)
            except tracer.quadrature_error:
                if metric == "numerics.integrate":
                    tracer.counts["quad_failures"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                depth[metric] -= 1
                if regularity:
                    tracer._regularity_depth -= 1
                tracer.self_time[metric] += dt - child
                if depth[metric] == 0:
                    tracer.inclusive[metric] += dt
                tracer.counts[metric] += 1
                if stack:
                    stack[-1] += dt

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        tracer = self

        if name == "eval_kernel":
            def wrapper(*args, **kwargs):
                counts["eval_kernel"] += 1
                if tracer._regularity_depth and tracer._command is not None:
                    tracer._command["evals"] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _bundle(self, fn):
        tracer = self

        def wrapper(model, grid, tol):
            if tracer._command is not None:
                key = (id(model), grid.v_points, grid.V_points,
                       grid.endpoint_margin, grid.tail_mass_cut)
                tracer._command["lattices"][key] += 1
            return fn(model, grid, tol)

        return wrapper

    def _invert(self, fn):
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            counts["bisect_calls"] += 1

            def counted(x):
                counts["bisect_fevals"] += 1
                return f(x)

            return fn(counted, *args, **kwargs)

        return wrapper

    def _inverse(self, fn):
        counts = self.counts

        def wrapper(rel, w):
            counts["inverse_calls"] += 1
            before = counts["bisect_calls"]
            try:
                return fn(rel, w)
            finally:
                if counts["bisect_calls"] != before:
                    counts["inverse_bisections"] += 1

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"seqscreen.{name}")
                for name in ("cli", "modelfile", "model_core", "regularity",
                             "numerics", "transforms", "propositions")}
        every = [importlib.import_module("seqscreen"), *mods.values()]
        self.quadrature_error = importlib.import_module(
            "seqscreen.errors").QuadratureError
        for modname, attr, metric in SPANS:
            original = getattr(mods[modname], attr)
            wrapper = self._span(metric, original)
            if attr == "_evaluate_bundle":
                wrapper = self._bundle(wrapper)
            self._replace_everywhere(every, original, wrapper)
        for modname, attr, name in COUNTS:
            original = getattr(mods[modname], attr)
            self._replace_everywhere(every, original,
                                     self._count(name, original))
        original = mods["numerics"].invert_monotone
        self._replace_everywhere(every, original, self._invert(original))
        rel_cls = mods["transforms"].Relabeling
        original = rel_cls.inverse
        self._patched.append((rel_cls, "inverse", original))
        rel_cls.inverse = self._inverse(original)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def command_lines(self) -> list[tuple[list[str], str]]:
        """Each traced command with its counters as ``label=n`` pairs."""
        return [(argv, " ".join(f"{label}={delta[key]}"
                                for key, label in COMMAND_COUNTERS))
                for argv, delta in self.per_command]

    def _module_self(self, module: str) -> float:
        return sum(t for m, t in self.self_time.items()
                   if m.startswith(module + "."))

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, incl = self.counts, self.inclusive
        inv = c["inverse_calls"]
        out = {
            "cli.self_s": (self.self_time["cli.main"], "s"),
            "modelfile.load_s": (incl["modelfile.load"], "s"),
            "modelfile.dumps_s": (incl["modelfile.dumps"], "s"),
            "model_core.validate_s": (incl["model_core.validate"], "s"),
            "model_core.eval_kernel_calls": (c["eval_kernel"], "count"),
            "model_core.cond_mean_calls": (c["model_core.cond_mean"],
                                           "count"),
            "model_core.cond_mean_s": (incl["model_core.cond_mean"], "s"),
            "regularity.self_s": (self._module_self("regularity"), "s"),
            "regularity.bundle_builds": (c["regularity.bundle"], "count"),
            "regularity.verify23_rebuild_frac": (
                self.verify23_rebuilt / self.verify23
                if self.verify23 else 0.0, "ratio"),
            "numerics.integrate_calls": (c["numerics.integrate"], "count"),
            "numerics.integrate_panels": (c["gk15"], "count"),
            "numerics.integrate_self_s": (
                self.self_time["numerics.integrate"], "s"),
            "numerics.quad_failures": (c["quad_failures"], "count"),
            "numerics.scan_calls": (c["numerics.scan"], "count"),
            "numerics.scan_s": (incl["numerics.scan"], "s"),
            "numerics.bisect_calls": (c["bisect_calls"], "count"),
            "numerics.bisect_fevals": (c["bisect_fevals"], "count"),
            "numerics.differentiate_calls": (c["differentiate"], "count"),
            "transforms.build_s": (incl["transforms.build"], "s"),
            "transforms.selfcheck_s": (incl["transforms.selfcheck"], "s"),
            "transforms.rebuild_s": (incl["transforms.rebuild"], "s"),
            "transforms.inverse_calls": (inv, "count"),
            "transforms.inverse_bisections": (c["inverse_bisections"],
                                              "count"),
            "transforms.inverse_hit_ratio": (
                1.0 - c["inverse_bisections"] / inv if inv else 0.0,
                "ratio"),
            "propositions.suite_s": (incl["propositions.suite"], "s"),
            "propositions.delta_s": (incl["propositions.delta"], "s"),
        }
        for sub in ("check", "verify", "grid"):
            pts = self.reg_points[sub]
            out[f"regularity.evals_per_point.{sub}"] = (
                self.reg_evals[sub] / pts if pts else 0.0, "ratio")
        return out
