"""Slice-function calculus in several quaternionic variables.

Exact stem-polynomial algebra, finite-difference differential operators,
Almansi-type component families, Wirtinger operators and the regularity and
sliceness checkers built on them.
"""

from .quaternion import (Quaternion, parse_quaternion, format_quaternion,
                         RealArgumentError, ONE, ZERO, I, J, K)
from .stem import StemElement, basis_product, bit, mask_indices
from .slicefn import (SliceFunction, StemPolynomial, variable, conj_variable,
                      constant, monomial, format_slice, to_monomials)
from .numeric import (NumericField, lift, coordinate_partial, euler_operator,
                      global_derivative, global_conj_derivative,
                      tangential_derivative, spherical_dirac, fueter_derivative,
                      laplacian, NearRealAxisError, DepthExhaustedError)
from .almansi import (ComponentFamily, spherical_components, fueter_components,
                      dirac_components, reconstruct, reconstruct_symbolic,
                      check_uniqueness, truncated_spherical, check_zonal)
from .wirtinger import (wirtinger_derivative, wirtinger_conj_derivative,
                        wirtinger_derivative_numeric,
                        wirtinger_conj_derivative_numeric,
                        check_regularity_symbolic,
                        check_regularity_numeric, check_strong_sliceness,
                        check_conjugation_identity, check_independence,
                        crosscheck)
from .expr import parse_slice, parse, lower, ExpressionSyntaxError, ArityError

__version__ = "0.1.0"
