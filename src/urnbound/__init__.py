"""Balanced multicolor urns: simulation, exact martingale decompositions
of linear color statistics, and explicit deviation bounds with built-in
verification against the exact law and Monte Carlo."""

from .errors import (
    BasisSingular,
    ComplexSpectrum,
    DimensionMismatch,
    GridMismatch,
    IndexOrder,
    LambdaOutOfRange,
    NegativeEntry,
    NonFiniteEntry,
    NotAnEigenvalue,
    NotDefective,
    NotEigenpair,
    NotIrreducible,
    NotJordanPair,
    RowSumNotOne,
    TooFewReplicas,
    TooLarge,
    UrnboundError,
)
from .spectral import (
    EigenStructure,
    ReplacementMatrix,
    SpectralDecomposition,
    decompose,
    indicator_coefficients,
    stationary_vector,
    validate_matrix,
)
from .process import (
    ColorCount,
    ReplicaBatch,
    Trajectory,
    simulate,
    simulate_replicas,
)
from .decomposition import (
    Expansion,
    conditional_means,
    dn_asymptotic,
    dn_exact,
    expand,
    growth_product,
    tail_products,
)
from .bounds import (
    BoundReport,
    color_deviation_bound,
    rate_function,
    spread,
    statistic_bound,
)
from .verification import (
    DominanceRow,
    DominanceTable,
    EstimateReport,
    ExactDistribution,
    dominance_check,
    exact_distribution,
    exact_tail,
    tail_estimates,
    wilson_upper,
)

__version__ = "0.1.0"
