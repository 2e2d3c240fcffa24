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
    NotRepeated,
    RowSumNotOne,
    TooLarge,
    UrnboundError,
)
from .spectral import (
    EigenStructure,
    ReplacementMatrix,
    SpectralDecomposition,
    decompose,
    indicator_coefficients,
    jordan_chain,
    real_spectrum,
    right_eigenvector,
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
    JordanExpansion,
    MartingaleExpansion,
    appendix_zeroth,
    conditional_means,
    dn_asymptotic,
    dn_exact,
    growth_product,
    jordan_decompose,
    jordan_weights,
    martingale_decompose,
    repeated_zero_decompose,
    tail_products,
)
from .bounds import (
    BoundReport,
    azuma_log_tail,
    azuma_tail,
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
