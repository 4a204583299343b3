"""symmrel: exact relation checks for homogeneous symmetric polynomials.

The package constructs families of homogeneous symmetric polynomials from
complete Bell polynomials of weighted power sums, verifies the zero and
polynomial-residue relations obtained by substituting the rows of the
matrix s_ij = y_i x_j - y_j x_i + x_i delta_ij, regenerates the residue
coefficient tables, and solves the exact linear and sequential systems the
relations induce (including nonlinear identities among Bernoulli numbers).

All arithmetic is exact: scalars are arbitrary-precision rationals and
every verdict is a polynomial identity, never a numerical approximation.
"""

__version__ = "0.1.0"

from .exactnum import bernoulli_numbers
from .families import (
    FAMILY_NAMES,
    FamilySpec,
    family_polynomial,
    get_family,
    symbolic_family_polynomial,
)
from .partitions import equation_count, exponent_vectors, partition_count
from .polyring import (
    MultiPoly,
    NonDivisibleError,
    TermCapExceeded,
    VarId,
)
from .relations import (
    RelationReport,
    build_s_matrix,
    extract_y_basis,
    extract_z,
    u_function,
    verify_conjecture1,
    verify_conjecture2,
)
from .solver import (
    CSolution,
    reconstruct_s_bar,
    sequential_a_elimination,
    solve_c_coefficients,
    verify_bernoulli_identity,
    verify_nonlinear_bernoulli,
)
from .symmfunc import (
    PowerSumExpansion,
    power_sum,
    power_sum_product,
    to_power_sum_basis,
)
