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

import importlib

from . import errors, model_core, modelfile, numerics, regularity
from .errors import *  # noqa: F401,F403
from .model_core import *  # noqa: F401,F403
from .modelfile import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .regularity import *  # noqa: F401,F403

__version__ = "0.1.0"


def __getattr__(name):
    """The names of ``transforms`` and ``propositions``, which load on the
    first use of any of them, so a command that calls neither does not
    compile them; ``__all__`` is the union of every module's public names."""
    lazy = [importlib.import_module(f"{__name__}.{module}")
            for module in ("transforms", "propositions")]
    if name == "__all__":
        return [public for module in (errors, numerics, model_core, modelfile,
                                      regularity, *lazy)
                for public in module.__all__] + ["__version__"]
    for module in lazy:
        if name in module.__all__:
            return getattr(module, name)
    if name in globals():  # the submodule itself, now imported
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
