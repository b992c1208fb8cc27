"""repro — Hardware for Speculative Run-Time Parallelization in DSMs.

A reproduction of Zhang, Rauchwerger & Torrellas (HPCA 1998): execute
possibly-parallel loops speculatively as doalls on a simulated CC-NUMA
multiprocessor, and let extensions to the cache coherence protocol flag
any cross-iteration dependence on the fly.

Typical entry points:

* :func:`repro.semantics.speculative_run` — run a real loop over
  plain Python sequences speculatively, with detection, recovery and
  value checking.
* :mod:`repro.runtime` — the Serial / Ideal / SW / HW scenario drivers
  over address-trace loops.
* :mod:`repro.experiments` — regenerate the paper's tables and figures
  (also ``python -m repro.experiments``).

See README.md for a tour and DESIGN.md for the system inventory.
"""

from .address import AddressSpace, ArrayDecl
from .errors import (
    AddressError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    SchedulingError,
    SpeculationFailure,
)
from .params import (
    CacheGeometry,
    ContentionModel,
    CostModel,
    LatencyTable,
    MachineParams,
    default_params,
    small_test_params,
)
from .types import AccessKind, ProtocolKind, Scenario

__version__ = "1.0.0"

__all__ = [
    "AccessKind",
    "AddressError",
    "AddressSpace",
    "ArrayDecl",
    "CacheGeometry",
    "ConfigurationError",
    "ContentionModel",
    "CostModel",
    "LatencyTable",
    "MachineParams",
    "ProtocolError",
    "ProtocolKind",
    "ReproError",
    "Scenario",
    "SchedulingError",
    "SpeculationFailure",
    "default_params",
    "small_test_params",
    "__version__",
]
