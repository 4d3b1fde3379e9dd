"""Toolkit for building paired temporal-reference QA benchmarks, collecting
model responses, and scoring referential consistency."""

__version__ = "0.1.0"
