"""Numerical solver and hypothesis verifier for -L_K u = f(x, u) with
zero exterior condition on an interval, via a P1 Galerkin discretization."""

from .assembly import AssembledOperator, assemble
from .errors import (AssemblyAccuracyError, AssemblyCorruptionError,
                     AuditFailedError, AuditInconclusiveError, ConfigError,
                     EigenClusterError, InvalidParameterError,
                     NonConvergenceError, NonlocalSaddleError,
                     NonResonanceContradictionError, NumericError,
                     ResonanceError, UnauditableError, UnsupportedCaseError)
from .kernels import (Kernel, KernelAudit, audit_kernel,
                      fractional_k1_closed_form, make_custom_kernel,
                      make_fractional_kernel)
from .meshing import Mesh, build_uniform_mesh, interpolate
from .nonlinearity import (Case, CaseClassification, GrowthReport,
                           NonlinearitySpec, SlopeGapReport, SourceProfile,
                           affine, audit_growth, bounded_perturbation,
                           check_f2_gap, classify, classify_slopes,
                           constant_profile, custom, eval_F, eval_f,
                           eval_f_t, nodal_profile, polynomial_profile,
                           saturating)
from .solvers import (GeometryProbe, SolveReport, SolverOptions,
                      UniquenessVerdict, eval_J, eval_gradient,
                      geometry_probe, linear_nonresonant_solve, load_vector,
                      morse_index, residual_weakform, solve_case_a,
                      solve_case_b, uniqueness_probe)
from .spectral import (Spectrum, poincare_lower_bound, project,
                       rayleigh_quotient, solve_eigenproblem)

__all__ = [name for name in dir() if not name.startswith("_")]
