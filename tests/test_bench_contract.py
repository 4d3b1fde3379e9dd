"""The names the benchmark under bench/ calls still exist.

The benchmark wraps toolkit functions and methods by name (`bench/tracer.py`)
and builds its inputs with toolkit calls (`bench/inputs.py`). A rename that
breaks either fails here, in the unit suite, not first in a benchmark run.
"""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))   # undone, with what inputs.py adds, after the test
    import inputs
    import tracer
    return inputs, tracer


def test_tracer_wraps_and_unwraps_every_name(bench):
    _, tracer = bench
    t = tracer.Tracer()
    try:
        tracer.instrument(t)   # a missing name raises AttributeError or KeyError here
    finally:
        left = t.remove()
    assert left == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_prepare_each_workload(bench, tmp_path, monkeypatch, workload):
    inputs, _ = bench
    caches = []   # the set-up leaves its cache open until the process exits; the test closes it

    class ClosedAfterTest(inputs.client.ResponseCache):
        def __init__(self, directory):
            super().__init__(directory)
            caches.append(self)

    monkeypatch.setattr(inputs.client, "ResponseCache", ClosedAfterTest)
    try:
        info = inputs.prepare(workload, seed=31, n_instances=40, out=tmp_path)
    finally:
        for cache in caches:
            cache.close()
    assert info["instances"] == 40 and info["records"] > 0
    assert (tmp_path / ("source.jsonl" if workload != "collect-cold" else "dataset.jsonl")).exists()
    if workload != "semantic-prompt":
        assert info["prompts"] == 80
        assert len((tmp_path / "prompts.jsonl").read_text(encoding="utf-8").splitlines()) == 80
    if workload == "offline-warm":
        assert len(caches) == 1 and len(caches[0]) == 80
