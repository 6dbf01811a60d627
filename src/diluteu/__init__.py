"""Normal approximation diagnostics for randomly diluted pair statistics.

The package builds the statistic U = binom(n,2)^{-1} sum_{i<j} Z_ij
h(X_i, X_j) from i.i.d. rows X and an independent Bernoulli(p) dilution
Z, decomposes it into martingale differences, and estimates the moment
and condition quantities that control how close the standardized
statistic is to a normal limit, including the regimes where the limit
fails.
"""

from . import conditions, decomposition, errors, harness, kernels, moments, sampling
from .errors import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .decomposition import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .conditions import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = (
    errors.__all__ + sampling.__all__ + kernels.__all__ + decomposition.__all__
    + moments.__all__ + conditions.__all__ + harness.__all__
)
