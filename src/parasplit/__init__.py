"""Parabolic optimal control: Crank-Nicolson finite elements plus a corrected
full-Jacobian splitting of the resulting separable quadratic program."""

from .mesh import DIRICHLET, NEUMANN, TriMesh, node_classification, uniform_unit_square
from .fem_assembly import (
    FemSpace,
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
    l2_error,
    load_vector,
    make_space,
)
from .sparse_linalg import (
    CholFactor,
    NotPositiveDefiniteError,
    factorize,
    solve_multi,
)
from .discretization import (
    DiscreteSystem,
    TimeGrid,
    build_system,
    constraint_residual,
    objective_constant_terms,
    objective_quadrature,
    objective_vec,
)
from .splitting_solver import (
    Iterate,
    SolveReport,
    SolverConfig,
    correction_factor,
    h_norm_sq,
    solve,
)
from .kkt_oracle import KktSolution, solve_kkt
from .experiments import (
    ConvergenceRow,
    ManufacturedProblem,
    benchmark,
    convergence_study,
    error_u_spacetime,
    error_y_final,
    example_5_1,
    example_5_2,
    iteration_history,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
