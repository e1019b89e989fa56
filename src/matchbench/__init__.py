"""matchbench: exact single-pattern byte search.

A collection of practical exact string-matching algorithms (comparison
based, factor-oracle based and bit-parallel), a dual-mode benchmark
harness (wall-clock time / instrumented character reads), result-table
and best-map reporting, and an alphabet-size x pattern-length selection
map for picking a searcher automatically.
"""

from .automata import FactorOracle, build_factor_oracle
from .bench import (
    ALLOWED_SIGMAS,
    CORPUS_EXPECTATIONS,
    BenchConfig,
    Measurement,
    generate_rand_text,
    load_corpus,
    run_benchmark,
    sample_patterns,
    sample_positions,
)
from .core import (
    W,
    ApplicabilityError,
    InstrumentedText,
    Pattern,
    Text,
    brute_force_search,
)
from .differential import DifferentialReport, Mismatch, run_differential
from .registry import (
    DEFAULT_SELECTION_MAP,
    REGISTRY,
    AlgorithmDescriptor,
    SelectionMap,
    applicable_algorithms,
    classify,
    get_algorithm,
    select,
    select_applicable,
)
from .report import parse_measurements_csv, render_best_map, render_table

__version__ = "0.1.0"

__all__ = [
    "ALLOWED_SIGMAS",
    "ApplicabilityError",
    "AlgorithmDescriptor",
    "BenchConfig",
    "CORPUS_EXPECTATIONS",
    "DEFAULT_SELECTION_MAP",
    "DifferentialReport",
    "FactorOracle",
    "InstrumentedText",
    "Measurement",
    "Mismatch",
    "Pattern",
    "REGISTRY",
    "SelectionMap",
    "Text",
    "W",
    "applicable_algorithms",
    "brute_force_search",
    "build_factor_oracle",
    "classify",
    "generate_rand_text",
    "get_algorithm",
    "load_corpus",
    "parse_measurements_csv",
    "render_best_map",
    "render_table",
    "run_benchmark",
    "run_differential",
    "sample_patterns",
    "sample_positions",
    "select",
    "select_applicable",
]
