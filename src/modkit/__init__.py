"""Coupling-matrix toolkit.

Fusion rings with rational twists, their modular data (S, T), complete
enumeration of non-negative integer coupling matrices commuting with
both, factorization into boundary data, nimreps over ADE graphs,
restriction series on the affine extensions with their Kostant
polynomials, chiral counting identities, coupling matrices built from
degenerate subsystems, and a torus transfer-matrix demonstration.
"""

__version__ = "0.1.0"

from .catalog import (ade_graph, affine_ade, cyclic_quadratic_twists,
                      gen_cyclic, gen_su2, graph_meta, mckay_marks)
from .chiral_analysis import (GlobalIndices, YClosureError,
                              coupling_reports, degenerate_invariant,
                              global_indices, product_system,
                              verify_extension)
from .fusion_core import (DegenerateFusionError, FusionSystem,
                          is_permutation_matrix, make_fusion_system)
from .invariant_enum import (BudgetExceededError, EnumerationError,
                             EnumerationResult, build_records,
                             enumerate_invariants, free_cells,
                             matrix_stats, twist_factor, twist_classes,
                             type_I_factor)
from .kostant import (CertificationError, KostantSeries,
                      McKayGraphError, find_rs, kostant_poly,
                      kostant_suite, mckay_series)
from .modular_data import (DegenerateNormalizationError,
                           DichotomyViolation, ModularData,
                           degenerate_sectors, modular_data,
                           verify_modular, verlinde_check)
from .nimrep import (Nimrep, NimrepBuildError, build_nimrep_su2,
                     spectrum_check)
from .reports import Check, Report

__all__ = [
    "__version__",
    "ade_graph", "affine_ade", "cyclic_quadratic_twists", "gen_cyclic",
    "gen_su2", "graph_meta", "mckay_marks",
    "GlobalIndices", "YClosureError", "coupling_reports",
    "degenerate_invariant", "global_indices", "product_system",
    "verify_extension",
    "DegenerateFusionError", "FusionSystem",
    "is_permutation_matrix", "make_fusion_system",
    "BudgetExceededError", "EnumerationError", "EnumerationResult",
    "build_records", "enumerate_invariants", "free_cells",
    "matrix_stats", "twist_factor", "twist_classes", "type_I_factor",
    "CertificationError", "KostantSeries",
    "McKayGraphError", "find_rs", "kostant_poly", "kostant_suite",
    "mckay_series",
    "DegenerateNormalizationError", "DichotomyViolation", "ModularData",
    "degenerate_sectors", "modular_data", "verify_modular",
    "verlinde_check",
    "Nimrep", "NimrepBuildError", "build_nimrep_su2", "spectrum_check",
    "Check", "Report",
]
