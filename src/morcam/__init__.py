"""Weighted-norm diagnostics for magnetic Schrodinger operators:
trapping components of magnetic fields, Morrey-Campanato and dyadic
shell norms, radial Morawetz multipliers, admissibility constants, a
gauge-covariant resolvent solver, and term-by-term verification of the
multiplier identity and its uniform-in-absorption estimates.
"""

__version__ = "0.1.0"

from .admissibility import (AdmissibilityReport, admissibility_report,
                            check_condition_3d, check_condition_nd,
                            compute_constants)
from .errors import (AccuracyError, DomainError, MorcamError, ParameterError,
                     SolverError)
from .fields import (PotentialPair, biot_savart, example_field, magnetic_matrix,
                     make_potential_pair, radial_derivative_parts,
                     trapping_component)
from .grids import RadialGrid, ScalarField, load_field, save_field
from .multipliers import Multiplier, SymmetricWeight, make_phi, make_varphi
from .norms import (NormReport, duality_gap, dyadic_dual, hardy_ratio,
                    mixed_radial_norm, morrey_campanato, theorem_lhs,
                    theorem_rhs)
from .resolvent import (DiscreteOperator, Discretization, ResolventProblem,
                        build_problem, covariant_gradient, make_datum,
                        radial_sweep, solve)
from .verify import (IdentityReport, SweepReport, epsilon_sweep,
                     estimate_report, identity_residual, identity_scan,
                     manufactured_identity)
