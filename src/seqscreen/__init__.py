"""Numerical verification toolkit for sequential-screening environments.

The package takes a screening model (a signal distribution paired with a
family of conditional valuation distributions), evaluates the derived
quantities the screening literature reasons with (hazard rates, the
information ratio, virtual values, conditional means), checks the standard
regularity conditions on dense lattices, relabels the signal axis, and runs
desk-scale verification suites for three structural claims about such
models. Everything is driven either from Python or from model files via the
``seqscreen`` command.
"""

from .errors import (
    ConstructionError,
    DensityUnderflowError,
    DomainError,
    EvaluationError,
    IntegrabilityError,
    LoadError,
    NearEndpointError,
    QuadratureError,
    SelfCheckError,
    ToolkitError,
)
from .model_core import (
    DEFAULT_GRID,
    DEFAULT_TOLERANCES,
    AdditiveNoiseKernel,
    BetaSignal,
    ExpTiltKernel,
    GridSpec,
    KernelEval,
    ModelValidation,
    PowerKernel,
    ScreeningModel,
    SignalDistribution,
    TableKernel,
    TableSignal,
    ToleranceConfig,
    UniformSignal,
    ValuationKernel,
    conditional_mean,
    conditional_mean_derivative,
    conditional_mean_derivative_many,
    conditional_mean_many,
    eval_kernel,
    make_kernel,
    make_signal,
    resolve_config,
    validate_model,
)
from .modelfile import dumps, load, loads
from .numerics import (
    DerivativeEstimate,
    Interval,
    differentiate,
    integrate,
    integrate_many,
    invert_monotone,
    scan_violations,
)
from .propositions import (
    DeltaField,
    PropositionReport,
    delta_diagnostic,
    verify,
    verify_prop1,
    verify_prop2,
    verify_prop3,
)
from .regularity import (
    CHECK_CODES,
    FIELD_NAMES,
    CheckReport,
    Field2D,
    RegularityReport,
    check_assumption,
    compute_field,
    gamma,
    hazard,
    regularity_report,
    virtual_value,
)
from .transforms import (
    RELABELING_KINDS,
    Relabeling,
    TransformedModel,
    apply_relabeling,
    make_relabeling,
    rebuild_from_section,
    relabel,
    transform_section,
)

__version__ = "0.1.0"

__all__ = [
    "ToolkitError", "DomainError", "EvaluationError", "QuadratureError",
    "IntegrabilityError", "ConstructionError", "SelfCheckError",
    "DensityUnderflowError", "NearEndpointError", "LoadError",
    "Interval", "integrate", "integrate_many", "differentiate",
    "DerivativeEstimate",
    "scan_violations", "invert_monotone",
    "GridSpec", "ToleranceConfig", "DEFAULT_GRID", "DEFAULT_TOLERANCES",
    "resolve_config", "SignalDistribution", "UniformSignal", "BetaSignal",
    "TableSignal", "ValuationKernel", "AdditiveNoiseKernel", "PowerKernel",
    "ExpTiltKernel", "TableKernel", "make_signal", "make_kernel",
    "ScreeningModel", "KernelEval", "eval_kernel",
    "conditional_mean", "conditional_mean_derivative",
    "conditional_mean_many", "conditional_mean_derivative_many",
    "ModelValidation",
    "validate_model", "loads", "dumps", "load",
    "CHECK_CODES", "FIELD_NAMES", "hazard", "gamma", "virtual_value",
    "Field2D", "compute_field", "CheckReport", "check_assumption",
    "RegularityReport", "regularity_report",
    "RELABELING_KINDS", "Relabeling", "make_relabeling", "apply_relabeling",
    "relabel", "TransformedModel", "transform_section",
    "rebuild_from_section",
    "DeltaField", "delta_diagnostic", "PropositionReport", "verify_prop1",
    "verify_prop2", "verify_prop3", "verify",
    "__version__",
]
