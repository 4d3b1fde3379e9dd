"""Toolkit for building paired temporal-reference QA benchmarks, collecting
model responses, and scoring referential consistency."""

__version__ = "0.1.0"

from .kb import TemporalFact, TimePoint, Timeline, neighbor_fact, parse_fact_context, parse_time_point
from .metrics import (
    EvalReport,
    ResponsePair,
    consistent_factuality,
    evaluate,
    exact_match,
    factual_deviation,
    normalize_answer,
    pearson,
    referential_consistency,
    token_f1,
)
from .querygen import (
    BenchmarkInstance,
    ConsistencyPair,
    build_consistency_pairs,
    build_dataset,
    build_instance,
    make_chronological_query,
)

__all__ = [
    "BenchmarkInstance", "ConsistencyPair", "EvalReport", "ResponsePair",
    "TemporalFact", "TimePoint", "Timeline",
    "build_consistency_pairs", "build_dataset", "build_instance",
    "consistent_factuality", "evaluate", "exact_match",
    "factual_deviation", "make_chronological_query",
    "neighbor_fact", "normalize_answer", "parse_fact_context",
    "parse_time_point", "pearson", "referential_consistency", "token_f1",
]
