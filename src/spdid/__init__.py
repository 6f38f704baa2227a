"""Geometry-aware distances between SPD matrices and fingerprinting ID rates."""

from .core import SpdError, SpdMatrix, regularize, validate_spd
from .dataio import (
    PathTemplate,
    SubjectRecord,
    find_subject_paths,
    generate_synthetic_cohort,
    load_matrix,
    save_matrix,
)
from .identification import IdReport, compute_id_rate, id_report, nearest_match_table
from .matfun import Spectrum, eig_sym, sym_inv_sqrt, sym_log, sym_pow, sym_sqrt
from .metrics import (
    MetricSpec,
    affine_invariant,
    alpha_procrustes,
    alpha_z_bw,
    bures_wasserstein,
    dispatch,
    euclid,
    log_euclid,
    pearson_dist,
)
from .pairwise import DistanceMatrix, both_directions, cross_distances

__all__ = [
    "DistanceMatrix",
    "IdReport",
    "MetricSpec",
    "PathTemplate",
    "SpdError",
    "SpdMatrix",
    "Spectrum",
    "SubjectRecord",
    "affine_invariant",
    "alpha_procrustes",
    "alpha_z_bw",
    "both_directions",
    "bures_wasserstein",
    "compute_id_rate",
    "cross_distances",
    "dispatch",
    "eig_sym",
    "euclid",
    "find_subject_paths",
    "generate_synthetic_cohort",
    "id_report",
    "load_matrix",
    "log_euclid",
    "nearest_match_table",
    "pearson_dist",
    "regularize",
    "save_matrix",
    "sym_inv_sqrt",
    "sym_log",
    "sym_pow",
    "sym_sqrt",
    "validate_spd",
]

__version__ = "0.1.0"
