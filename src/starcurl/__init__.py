"""starcurl: an explicit right inverse of the curl on star-shaped domains.

The central object is the integral operator R built from a mollifier
supported in the unit ball the domain is star-shaped around: for a
continuous solenoidal field g tangent to the boundary, v = Rg satisfies
curl v = g with v = 0 on the boundary and outside.  The package carries
the companion divergence inverse, the analytic derivative representation,
smooth truncations, and a verification harness that certifies every
identity numerically, including the boundary flux correction that the
reproduction identity picks up for fields with nonzero normal trace.
"""

from .fields import (ModulusTable, VectorField, dini_integral,
                     modulus_of_continuity, parse_field, registry_get,
                     registry_names)
from .geometry import (StarDomain, ball, box, contains, ellipsoid,
                       parse_domain, radial, radial_from_function,
                       sample_interior, validate_star_shape)
from .kernels import grad_kernel_N, kernel_N, kernel_N_form, kernel_N_tilde
from .operators import (CurlInverseOp, FieldSampleGrid, bogovskii,
                        boundary_flux_term, curl_inverse, curl_inverse_eps,
                        curl_of_curl_inverse, eval_grid, grad_curl_inverse)
from .quadrature import QuadratureConfig
from .smoothing import Mollifier
from .verify import (CheckReport, boundary_check, curl_check, curl_reference,
                     div_check, eps_study, fd_curl, fd_div, fd_jacobian,
                     forms_check, grad_check)

__version__ = "0.1.0"

__all__ = [
    "Mollifier", "QuadratureConfig", "StarDomain", "VectorField",
    "ModulusTable", "CurlInverseOp", "FieldSampleGrid", "CheckReport",
    "ball", "ellipsoid", "box", "radial", "radial_from_function",
    "parse_domain", "contains", "sample_interior", "validate_star_shape",
    "registry_get", "registry_names", "parse_field",
    "modulus_of_continuity", "dini_integral",
    "kernel_N", "kernel_N_tilde", "grad_kernel_N", "kernel_N_form",
    "curl_inverse", "curl_inverse_eps", "bogovskii", "grad_curl_inverse",
    "curl_of_curl_inverse", "boundary_flux_term", "eval_grid",
    "fd_jacobian", "fd_curl", "fd_div", "curl_reference", "curl_check",
    "grad_check", "div_check", "boundary_check", "eps_study", "forms_check",
    "__version__",
]
