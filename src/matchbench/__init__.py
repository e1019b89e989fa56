"""matchbench: exact single-pattern byte search.

A collection of practical exact string-matching algorithms (comparison
based, factor-oracle based and bit-parallel), a dual-mode benchmark
harness (wall-clock time / instrumented character reads), result-table
and best-map reporting, and an alphabet-size x pattern-length selection
map for picking a searcher automatically.

The public names load lazily (PEP 562): ``import matchbench`` loads no
submodule, and each name imports its home module on first use, so a
cold ``search`` never loads the benchmark, report or differential code.
"""

from importlib import import_module

__version__ = "0.1.0"

# home submodule -> the public names it defines
_EXPORTS = {
    "automata": ("FactorOracle", "build_factor_oracle"),
    "bench": ("BenchConfig", "Measurement", "generate_rand_text", "run_benchmark",
              "sample_patterns", "sample_positions"),
    "core": ("ALLOWED_SIGMAS", "CORPUS_EXPECTATIONS", "W", "ApplicabilityError",
             "InstrumentedText", "Pattern", "Text", "brute_force_search", "load_corpus"),
    "differential": ("DifferentialReport", "Mismatch", "run_differential"),
    "registry": ("DEFAULT_SELECTION_MAP", "REGISTRY", "AlgorithmDescriptor", "SelectionMap",
                 "applicable_algorithms", "classify", "get_algorithm", "select",
                 "select_applicable"),
    "report": ("parse_measurements_csv", "render_best_map", "render_table"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
