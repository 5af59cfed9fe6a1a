"""Discrete SBV energy calculus for dimension-reduced and
disarrangement-relaxed interfacial energies.

The package provides meshes of (rotated) unit squares and cubes, discrete
SBV fields with exact jump calculus, the closed-form relaxed densities, an
exact chain solver for the relaxation cell problems, explicit
infimizing competitor sequences, and structured-triple functionals.
"""

from .constructions import (
    DecayRow,
    SequenceKind,
    SequenceParams,
    build,
    decay_table,
)
from .densities import (
    DensityPair,
    HypothesisReport,
    check_hypotheses,
    density_by_name,
    h_3d2d,
    h_pure,
    interfacial_normal_pair,
    psi1_bar,
    psi1_pair,
    w_3d2dsd,
    w_3dsd,
    w_3dsd2d,
)
from .fields import (
    AffineDatum,
    JumpTable,
    SbvField,
    StepDatum,
    average_gradient,
    boundary_trace_gap,
    field_from_json,
    field_to_json,
    gauss_green_residual,
)
from .functionals import (
    PathEqualityReport,
    StructuredTriple,
    eval_F3dSD,
    eval_left,
    eval_right,
    path_equality_report,
    triple_from_json,
    triple_to_json,
)
from .meshes import Mesh, build_mesh
from .solver import (
    CellProblem,
    Kind,
    PathCompareReport,
    RefineRow,
    SolveResult,
    closed_form,
    path_compare_numeric,
    problem_from_json,
    refine_study,
    result_to_json,
    solve,
)

__version__ = "0.1.0"
