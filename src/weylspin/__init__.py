"""Numerical spinor calculus on Weyl manifolds.

Clifford algebra representations, Weyl connections and their curvature,
the Dirac/twistor/Killing operators on conformally weighted spinor
fields, and a seeded verification suite that checks every implemented
identity as a pointwise relative residual.  All tensor components refer
to the orthonormal frame of the current gauge; conformal weights are
exact rationals carried as metadata.
"""

from .clifford import (CliffordRep, Density, SlotTensor, Spinor,
                       build_representation, clifford_mul, nu,
                       tensor_clifford)
from .fields import (ChartField, Jet, Poly, as_fraction, constant_field,
                     coordinate_jets, jet_einsum, permute, polynomial_field,
                     zyk)
from .harness import (CHECKS, EXAMPLES, CheckRecord, Report, SuiteConfig,
                      emit_report, load_config, parse_report, random_gauge,
                      resolve_checks, run_example, run_suite)
from .killing import (KillingDatum, example_killing_half,
                      example_parallel_zero, flat_twistor_family,
                      integrability_report, integrability_residual,
                      killing_kernel_determinant, killing_residual,
                      killing_transport)
from .spinops import (GateError, curvature_contraction_checks, dirac, first_integrals,
                      gauge_transport_spinor, hessian_identity_check,
                      nabla_dirac_residual, pair_parallel_residuals,
                      polynomial_spinor, sl_residual, spin_lc_derivative,
                      spinor_laplacian, spinorial_curvature, twistor,
                      twistor_laplacian_residuals, weyl_spinor_derivative)
from .weyl import (CurvatureBundle, FramePack, Gauge,
                   change_gauge, connection_residuals, curvature,
                   einstein_weyl_residual, faraday, frame_pack,
                   relative_residual, weyl_christoffels)

__version__ = "0.1.0"

__all__ = [
    "CHECKS", "ChartField", "CheckRecord", "CliffordRep", "CurvatureBundle",
    "Density", "EXAMPLES", "FramePack", "GateError", "Gauge", "Jet",
    "KillingDatum", "Poly", "Report", "SlotTensor", "Spinor", "SuiteConfig",
    "as_fraction", "build_representation", "change_gauge", "clifford_mul",
    "connection_residuals", "constant_field", "coordinate_jets", "curvature",
    "curvature_contraction_checks", "dirac", "einstein_weyl_residual",
    "emit_report", "example_killing_half", "example_parallel_zero", "faraday",
    "first_integrals", "flat_twistor_family", "frame_pack",
    "gauge_transport_spinor", "hessian_identity_check",
    "integrability_report", "integrability_residual", "jet_einsum",
    "killing_kernel_determinant", "killing_residual", "killing_transport",
    "load_config", "nabla_dirac_residual", "nu", "pair_parallel_residuals",
    "parse_report", "permute", "polynomial_field", "polynomial_spinor",
    "random_gauge", "relative_residual", "resolve_checks", "run_example",
    "run_suite", "sl_residual", "spin_lc_derivative", "spinor_laplacian",
    "spinorial_curvature", "tensor_clifford", "twistor",
    "twistor_laplacian_residuals", "weyl_christoffels",
    "weyl_spinor_derivative", "zyk",
]
