"""Exact rational parametrizations of projective toric varieties.

From a lattice polytope the package computes the normal fan, the point
monomials spanning the homogeneous coordinate ring's relevant graded piece,
the scaling group of the quotient construction and its character kernels,
primitive-collection coprimality of polynomial tuples, composition of
monomial systems with tuples, decomposition of parametrizations back into
tuples, and minimal resolutions of singular toric surfaces.  All arithmetic
is exact (arbitrary-precision integers and rationals).
"""

from .errors import ToriparamError
from .linalg import (HermiteResult, IntMat, determinant,
                     hermite_normal_form, primitive_vector,
                     saturated_kernel_basis, solve_integer_linear)
from .polynomials import (Factorization, MultiPoly, factor_univariate,
                          gcd_many, gcd_multi, parse, parse_tuple, render,
                          try_divide)
from .polytope import (Cone, Facet, Fan, Frame, LatticePolytope,
                       PrimitiveCollection, frame_of, is_smooth,
                       lattice_points, monomial_exponents, normal_fan,
                       polytope_from_vertices, primitive_collections,
                       smallest_containing_cone)
from .subtorus import (Character, GroupPoint, SubtorusDescription,
                       TorsionGen, character_from_offsets, character_kernel,
                       contains_point, find_rescaling, format_character,
                       format_subgroup, offset_character, rescale,
                       rescaling_group, scaling_group, solve_character,
                       subgroup_contains, subgroups_equal)
from .parametrization import (Composition, LatticePolynomial, ParamSystem,
                              ParamTuple, RationalParametrization,
                              check_implicit, compose_system,
                              full_monomial_system, is_primitive_coprime,
                              is_rational_parametrization,
                              same_parametrization, subset_monomial_system)
from .resolution import (ResolvedFan, VirtualFacet, minimal_resolution,
                         resolved_frame, resolved_monomial_exponents,
                         virtual_facets)
from .decomposition import (DecompositionResult, decompose_univariate,
                            decompose_with_hints)

__version__ = "0.1.0"
