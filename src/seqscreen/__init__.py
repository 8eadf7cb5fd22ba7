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

from . import (errors, model_core, modelfile, numerics, propositions,
               regularity, transforms)
from .errors import *  # noqa: F401,F403
from .model_core import *  # noqa: F401,F403
from .modelfile import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .propositions import *  # noqa: F401,F403
from .regularity import *  # noqa: F401,F403
from .transforms import *  # noqa: F401,F403

__version__ = "0.1.0"

# The package exports the union of its modules' public names.
__all__ = [name for module in (errors, numerics, model_core, modelfile,
                               regularity, transforms, propositions)
           for name in module.__all__] + ["__version__"]
