"""Sequency-domain signal processing with a quantum filtering pipeline.

Classical layer: fast Walsh-Hadamard transforms in natural and sequency
orderings plus supporting index arithmetic. Quantum layer: a dense statevector
simulator, builders for the sequency-transform and filtering circuits, and
end-to-end filters checked against the classical path.
"""

from walshdsp import circuits, filters, signals, simulator, transforms, verification
from walshdsp.circuits import *
from walshdsp.filters import *
from walshdsp.signals import *
from walshdsp.simulator import *
from walshdsp.transforms import *
from walshdsp.verification import *

__version__ = "0.1.0"

# each module's __all__ names its public surface; this package republishes them
__all__ = ["__version__"]
__all__ += circuits.__all__
__all__ += filters.__all__
__all__ += signals.__all__
__all__ += simulator.__all__
__all__ += transforms.__all__
__all__ += verification.__all__
