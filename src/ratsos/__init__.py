"""Certified lower bounds for sums of rational functions over compact
semialgebraic sets, computed through block moment relaxations with
sign-symmetry and per-clique sparsity reductions."""

__version__ = "0.1.0"

from .corrsparse import CliqueStructure, build_cliques, ensure_ball_constraints
from .families import FAMILIES, rayleigh_to_real
from .oracle import GridOracleResult, grid_oracle
from .poly import Monomial, Polynomial, basis
from .problem import Constraint, SrfoProblem, parse, serialize
from .relax import (
    METHODS,
    RelaxationSdp,
    build,
    flatness_certificate,
    min_order,
    solve_relaxation,
)
from .sdp import (
    SdpStandardForm,
    SolveReport,
    export_sdpa,
    read_sdpa,
    solve_internal,
    to_standard_form,
)
from .signsym import (
    SignSymmetryGroup,
    block_partition,
    in_closure,
    sign_symmetries,
    support_sets,
)

__all__ = [
    "CliqueStructure",
    "Constraint",
    "FAMILIES",
    "GridOracleResult",
    "METHODS",
    "Monomial",
    "Polynomial",
    "RelaxationSdp",
    "SdpStandardForm",
    "SignSymmetryGroup",
    "SolveReport",
    "SrfoProblem",
    "basis",
    "build",
    "build_cliques",
    "ensure_ball_constraints",
    "export_sdpa",
    "flatness_certificate",
    "grid_oracle",
    "in_closure",
    "min_order",
    "parse",
    "rayleigh_to_real",
    "read_sdpa",
    "serialize",
    "sign_symmetries",
    "solve_internal",
    "solve_relaxation",
    "support_sets",
    "to_standard_form",
]
