"""Numerics for classical restrictions of matrix product states.

Measurement-string probabilities, average post-measurement entropies,
classical and quantum conditional mutual information, quasi-local Gibbs
fits of the outcome distribution, purity-condition certification of Kraus
families, and martingale trajectory sampling — all over left-normalized
Kraus families on finite or infinite chains.

The public names are those of each module's ``__all__``, re-exported here
as they stand, with ``__version__`` and the error base ``MpsRestrictError``.
"""

from . import chain, gibbs, linalg, modelio, models, purity, restriction, trajectories
from .chain import *
from .errors import MpsRestrictError
from .gibbs import *
from .linalg import *
from .models import *
from .modelio import *
from .purity import *
from .restriction import *
from .trajectories import *

__version__ = "0.1.0"

__all__ = ["__version__", "MpsRestrictError"]
__all__ += chain.__all__
__all__ += gibbs.__all__
__all__ += linalg.__all__
__all__ += models.__all__
__all__ += modelio.__all__
__all__ += purity.__all__
__all__ += restriction.__all__
__all__ += trajectories.__all__
