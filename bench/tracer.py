"""Span tracer for the benchmark's traced iterations.

The toolkit's modules import functions from each other by name
(`from .kb import parse_fact_context`, `from .metrics import evaluate`), so
a function is wrapped wherever a toolkit module binds it, not only in the
module that defines it. `Tracer.remove` puts every original object back.

Spans are kept in memory, as (span_id, parent_id, name, start, end), and
written out once the iteration is over. A span's self time is its duration
minus that of its direct children, which never overlap because spans nest
per thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "trc_toolkit"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.time: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        stack = self._stack()
        frame = [next(self._ids), stack[-1][0] if stack else 0, 0.0, perf_counter()]
        stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list):
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, parent, child_s, start = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        totals = self.time.setdefault(name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child_s
        self.spans.append((span_id, parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame)

    # -- wrapper factories ------------------------------------------------------

    def timed(self, name: str, observe=None):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = self._enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(name, frame)
                if observe is not None:
                    observe(args, result)
                return result
            return wrapper
        return factory

    def timed_generator(self, name: str):
        """Times each step of a generator: the time spent producing its items."""
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    frame = self._enter()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, frame)
                    yield item
            return wrapper
        return factory

    def counted(self, name: str, observe=None):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            return wrapper
        return factory

    # -- patching ---------------------------------------------------------------

    def wrap_function(self, module, attr: str, factory):
        """Replace `module.attr` in every toolkit module that binds it."""
        original = getattr(module, attr)
        wrapper = factory(original)
        wrapper.bench_traced = True
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == PACKAGE]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, factory):
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        wrapper = factory(raw.__func__ if is_classmethod else raw)
        wrapper.bench_traced = True
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def remove(self) -> list[str]:
        """Undo every patch; returns the names still wrapped (none if all is well)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        left = []
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != PACKAGE:
                continue
            for key, value in vars(mod).items():
                targets = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
                for target in targets:
                    target = getattr(target, "__func__", target)
                    if getattr(target, "bench_traced", False):
                        left.append(f"{name}.{key}")
        return left

    # -- results ---------------------------------------------------------------

    def total_s(self, name: str) -> float:
        return self.time.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.time.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.time.get(name, (0, 0.0, 0.0))[0]

    def write_spans(self, path: str | os.PathLike):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def instrument(tracer: Tracer):
    """Wrap the public functions of every toolkit layer the benchmark reports.

    `relations` is only dict lookups; its time falls inside querygen's spans.
    """
    from trc_toolkit import client, kb, manifest, metrics, prompting, querygen, report, translation

    t = tracer
    first_lookup: set = set()

    def built(args, result):
        instances, skips = result
        t.counts["querygen.instances_out"] += len(instances)
        t.counts["querygen.skips"] += len(skips)

    def pool(args, result):
        t.counts["prompting.pool_size.sum"] += len(args[0])

    def lookup(args, result):
        if args[1] not in first_lookup:
            first_lookup.add(args[1])
            t.counts["client.cache.misses" if result is None else "client.cache.hits"] += 1

    def scored(args, result):
        t.counts["metrics.pairs_scored"] += result.m

    def hashed(args, result):
        t.counts["manifest.sha256_file.bytes"] += os.path.getsize(args[0])

    t.wrap_function(kb, "parse_fact_context", t.timed("kb.parse_fact_context"))
    t.wrap_function(querygen, "build_dataset", t.timed("querygen.build_dataset", built))
    t.wrap_function(querygen, "build_instance", t.timed("querygen.build_instance"))
    t.wrap_function(querygen, "build_consistency_pairs",
                    t.timed("querygen.build_consistency_pairs"))
    t.wrap_function(querygen, "subsample", t.timed("querygen.subsample"))
    t.wrap_function(prompting, "select_demonstrations",
                    t.timed("prompting.select_demonstrations", pool))
    t.wrap_function(prompting, "render_prompt", t.timed("prompting.render_prompt"))
    t.wrap_function(prompting, "export_sft", t.timed("prompting.export_sft"))
    t.wrap_method(prompting.IdfIndex, "build", t.counted("prompting.idf_index.builds"))
    t.wrap_method(prompting.IdfIndex, "vector", t.counted("prompting.idf_index.vectors"))
    t.wrap_function(client, "collect_responses", t.timed("client.collect_responses"))
    t.wrap_function(client, "extract_answer", t.timed("client.extract_answer"))
    t.wrap_method(client.ResponseCache, "__init__", t.timed("client.cache.load"))
    t.wrap_method(client.ResponseCache, "put", t.timed("client.cache.put"))
    t.wrap_method(client.ResponseCache, "get", t.counted("client.cache.get", lookup))
    t.wrap_function(metrics, "evaluate", t.timed("metrics.evaluate", scored))
    t.wrap_function(metrics, "normalize_answer", t.timed("metrics.normalize_answer"))
    t.wrap_function(translation, "chrf_pp", t.timed("translation.chrf_pp"))
    t.wrap_function(translation, "bleu_n", t.timed("translation.bleu_n"))
    t.wrap_function(translation, "translation_success_rate",
                    t.timed("translation.translation_success_rate"))
    t.wrap_function(report, "build_report", t.timed("report.build_report"))
    t.wrap_function(report, "format_text_report", t.timed("report.format_text_report"))
    t.wrap_function(manifest, "read_jsonl", t.timed_generator("manifest.read_jsonl"))
    t.wrap_function(manifest, "write_jsonl", t.timed("manifest.write_jsonl"))
    t.wrap_function(manifest, "write_manifest", t.timed("manifest.write_manifest"))
    t.wrap_function(manifest, "sha256_file", t.timed("manifest.sha256_file", hashed))


def layer_metrics(t: Tracer, stages: list[str]) -> dict[str, float]:
    """Per-layer numbers of one traced iteration (the endpoint's come from the stub)."""
    out: dict[str, float] = {}
    for stage in stages:
        out[f"cli.{stage}.s"] = t.total_s(f"cli.{stage}")
        out[f"cli.{stage}.self_s"] = t.self_s(f"cli.{stage}")
    records_in = t.counts["querygen.instances_out"] + t.counts["querygen.skips"]
    build_s = t.total_s("cli.build")
    out["cli.build.records_per_s"] = records_in / build_s if build_s else 0.0
    out["kb.parse_fact_context.calls"] = t.calls("kb.parse_fact_context")
    out["kb.parse_fact_context.s"] = t.total_s("kb.parse_fact_context")
    out["querygen.build_dataset.s"] = t.total_s("querygen.build_dataset")
    out["querygen.build_instance.calls"] = t.calls("querygen.build_instance")
    out["querygen.build_instance.self_s"] = t.self_s("querygen.build_instance")
    out["querygen.records_in"] = records_in
    out["querygen.instances_out"] = t.counts["querygen.instances_out"]
    out["querygen.skips"] = t.counts["querygen.skips"]
    out["querygen.build_consistency_pairs.s"] = t.total_s("querygen.build_consistency_pairs")
    out["querygen.subsample.s"] = t.total_s("querygen.subsample")
    demos = t.calls("prompting.select_demonstrations")
    demos_s = t.total_s("prompting.select_demonstrations")
    out["prompting.select_demonstrations.calls"] = demos
    out["prompting.select_demonstrations.s"] = demos_s
    out["prompting.select_demonstrations.ms_per_call"] = 1000 * demos_s / demos if demos else 0.0
    out["prompting.idf_index.builds"] = t.counts["prompting.idf_index.builds"]
    out["prompting.idf_index.vectors"] = t.counts["prompting.idf_index.vectors"]
    out["prompting.pool_size.mean"] = t.counts["prompting.pool_size.sum"] / demos if demos else 0.0
    out["prompting.render_prompt.s"] = t.total_s("prompting.render_prompt")
    out["prompting.export_sft.s"] = t.total_s("prompting.export_sft")
    out["client.collect_responses.s"] = t.total_s("client.collect_responses")
    out["client.cache.load_s"] = t.total_s("client.cache.load")
    out["client.cache.put.calls"] = t.calls("client.cache.put")
    out["client.cache.put.s"] = t.total_s("client.cache.put")
    out["client.cache.hits"] = t.counts["client.cache.hits"]
    out["client.cache.misses"] = t.counts["client.cache.misses"]
    out["client.extract_answer.s"] = t.total_s("client.extract_answer")
    pairs = t.counts["metrics.pairs_scored"]
    normalized = t.calls("metrics.normalize_answer")
    out["metrics.evaluate.s"] = t.total_s("metrics.evaluate")
    out["metrics.normalize_answer.calls"] = normalized
    out["metrics.normalize_answer.calls_per_pair"] = normalized / pairs if pairs else 0.0
    out["metrics.normalize_answer.s"] = t.total_s("metrics.normalize_answer")
    out["metrics.pairs_scored"] = pairs
    out["translation.chrf_pp.calls"] = t.calls("translation.chrf_pp")
    out["translation.chrf_pp.s"] = t.total_s("translation.chrf_pp")
    out["translation.bleu_n.s"] = t.total_s("translation.bleu_n")
    out["translation.translation_success_rate.s"] = t.total_s(
        "translation.translation_success_rate")
    out["report.build_report.s"] = t.total_s("report.build_report")
    out["report.format_text_report.s"] = t.total_s("report.format_text_report")
    out["manifest.read_jsonl.s"] = t.total_s("manifest.read_jsonl")
    out["manifest.write_jsonl.s"] = t.total_s("manifest.write_jsonl")
    out["manifest.write_manifest.s"] = t.total_s("manifest.write_manifest")
    out["manifest.sha256_file.bytes"] = t.counts["manifest.sha256_file.bytes"]
    out["trace.spans"] = len(t.spans)
    return out
