"""Exact enumeration of simultaneous core partitions, gap posets, and lattice paths."""

from .errors import (
    EnumerationCapError,
    ExactDivisionError,
    InfinitePosetError,
    InvariantError,
    NonCoprimeError,
    NotACoreError,
    SimcoresError,
)
from .exact import binomial, catalan_number, det_exact, det_qpoly, hessenberg_catalan_det
from .partitions import (
    Partition,
    count_subpartitions,
    partition_from_hooks,
    render_ferrers,
    subpartitions,
)
from .paths import (
    GeneralizedDyckPath,
    RectPath,
    count_gd,
    count_rect_paths,
    diagonal_cell_labels,
    diagonal_partition,
    enumerate_gd,
    enumerate_rect_paths,
    gd_to_ideal,
    svg_paths,
)
from .posets import (
    GapPoset,
    build_gap_poset,
    consecutive_poset,
    core_to_ideal,
    ideal_to_core,
    multi_catalan,
)
from .qpoly import QPolynomial, q_binomial
from .series import PowerSeries, geometric_series
from .verify import (
    CheckReport,
    catalan_identity,
    conjecture_total_size,
    count_representations,
    equinumerosity_suite,
    frobenius_pair,
    gf_coefficients,
    kreweras_count,
    motzkin_identity_check,
    popoviciu,
    qdet_coarea,
    subpartition_size_polynomial,
    sylvester_check,
    symmetry_check,
)

__version__ = "0.1.0"
