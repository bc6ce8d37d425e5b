"""Radio labelings and exact radio numbers of diameter-3 Hamming graphs."""

from .exceptional import (
    FormulaDomainError,
    RnFormulaResult,
    RunSearchBudgetError,
    constructive_ordering,
    formula_sizes,
    max_consecutive_run,
    ordering_22n,
    ordering_233,
    radio_number_formula,
)
from .graphs import (
    GraphError,
    HammingGraph,
    Vertex,
    format_vertex,
    parse_graph,
    parse_vertex,
)
from .labeling import (
    GracefulReport,
    LabelingError,
    RadioLabeling,
    ValidationReport,
    Violation,
    check_graceful,
    read_labeling_csv,
    span_of_ordering,
    validate,
    verify_bijection,
    write_labeling_csv,
)
from .ordering import (
    ConstructionError,
    build_blocks,
    build_ordering,
)
from .solver import (
    SolveResult,
    SolverConfig,
    SolverError,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "FormulaDomainError",
    "GraphError",
    "GracefulReport",
    "HammingGraph",
    "LabelingError",
    "ConstructionError",
    "RadioLabeling",
    "RnFormulaResult",
    "RunSearchBudgetError",
    "SolveResult",
    "SolverConfig",
    "SolverError",
    "ValidationReport",
    "Vertex",
    "Violation",
    "build_blocks",
    "build_ordering",
    "check_graceful",
    "constructive_ordering",
    "format_vertex",
    "formula_sizes",
    "max_consecutive_run",
    "ordering_22n",
    "ordering_233",
    "parse_graph",
    "parse_vertex",
    "radio_number_formula",
    "read_labeling_csv",
    "solve",
    "span_of_ordering",
    "validate",
    "verify_bijection",
    "write_labeling_csv",
]
