"""Exact open-closed TFT data for polynomial Landau-Ginzburg pairs.

Everything is computed over the Gaussian rationals with no floating point:
Jacobi algebras and residue traces, Koszul cohomology of the twisted
contraction, the category of matrix factorizations with its defect
differential, and the full axiom suite for the resulting TFT datum,
including the Cardy comparison.
"""

__version__ = "0.1.0"

from .errors import (
    AdjointnessError,
    ClassBoundError,
    DegenerateTraceError,
    FactorizationError,
    InternalCheckError,
    LGError,
    NonCocycleError,
    NonIsolatedCriticalLocusError,
    ParseError,
    RingMismatchError,
    ShapeError,
    SingularMatrixError,
    ValidationError,
)
from .scalars import GaussianRational
from .poly import PolyRing, Polynomial, parse_polynomial
from .lgpair import LGPair, detect_weights, make_lg_pair
from .linalg import SparseMatrix
from .complex import FreeComplex
from .groebner import GroebnerBasis, normal_form
from .jacobi import (
    JacobiAlgebra,
    ResidueTrace,
    hessian_determinant,
    is_critical_set_finite,
    jacobi_algebra,
    jacobi_groebner,
    milnor_number,
    residue_trace,
)
from .koszul import (
    GradedDimensionTable,
    KoszulComplex,
    VanishingReport,
    apply_iota,
    check_vanishing_negative_degrees,
    koszul_cohomology,
)
from .polymatrix import PolyMatrix
from .matfact import (
    HomCohomology,
    MatrixFactorization,
    Morphism,
    MorphismClass,
    compose_classes,
    hom_cohomology,
    koszul_factorization,
    make_factorization,
)
from .tft import (
    AxiomReport,
    BraneCategory,
    BulkAlgebra,
    CardyResult,
    TFTDatum,
    build_tft_datum,
    verify_tft_datum,
)
from .jobs import JobSpec, diff_reports, load_job, run_job
from .cache import Cache, null_cache
