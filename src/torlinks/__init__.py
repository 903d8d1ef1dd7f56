"""Matrix homotopies between close tuples of commuting normal contractions.

The package constructs piecewise-analytic paths ("links") joining two
delta-close tuples of commuting normal contractions while controlling
normality, pairwise commutation, and distance to the target along the way,
lifts them through Z2 dilations, and ships the supporting machinery: joint
spectra, bottleneck spectral matching, Clifford norms, clock/shift pairs
with Bott indices, and a small relation-checking DSL.
"""

# each module's __all__ is its one list of public names
from .matcore import *
from .jointspec import *
from .spectral_match import *
from .homotopy import *
from .lifting import *
from .softtorus import *
from .ncrel import *

__version__ = "0.1.0"
