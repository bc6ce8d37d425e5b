"""Radio labelings and exact radio numbers of Hamming graphs, any number of factors."""

from .exceptional import (
    FormulaDomainError,
    RnFormulaResult,
    RunSearchBudgetError,
    max_consecutive_run,
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
    "format_vertex",
    "max_consecutive_run",
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
