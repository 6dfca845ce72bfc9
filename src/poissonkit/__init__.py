"""poissonkit: exact invariants of polynomial Poisson structures.

Schouten calculus, the Lichnerowicz differential, modular vector fields,
log-symplectic and holonomicity diagnostics, Tjurina numbers, and
weight-graded Poisson cohomology tables, all over exact rational
arithmetic.  See README.md for the CLI and the file format.
"""

from .polyalg import (
    Chart,
    Poly,
    format_poly,
    gcd_multi,
    parse_poly,
)
from .multivec import (
    Polyvector,
    SIGN_CONVENTIONS,
    apply_vector_field,
    bv,
    contract,
    covolume,
    format_polyvector,
    lie_derivative,
    parse_polyvector,
    schouten,
    wedge,
)
from .poisson import (
    DIdealGenerator,
    PoissonStructure,
    diagonal_quadratic_bivector,
    dmodule_generators,
    hamiltonian,
    jacobiator,
    modular_field,
    new_poisson,
    pfaffian,
    poisson_bracket,
)
from .groebner import (
    INFINITE,
    GroebnerBasis,
    buchberger,
    ideal_dimension,
    jacobian_ideal_basis,
    normal_form,
    quotient_dimension,
)
from .diagnostics import StructureAnalysis, Verdict
from .graded_cohomology import (
    CohomologyTable,
    GradedBasis,
    cohomology_table,
    dpi_matrix,
    graded_basis,
    homogeneity_weight,
    rank_exact,
)
from .errors import (
    BasisSizeExceededError,
    BudgetExceededError,
    ChartMismatchError,
    DegenerateEverywhereError,
    JacobiFailure,
    NonReducedCurveError,
    ParseError,
    PreconditionError,
    UnknownIdentifierError,
)
from .structfile import StructureSpec, parse_structure_file

__version__ = "0.1.0"
