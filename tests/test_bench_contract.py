"""The names the benchmark under bench/ calls still exist.

The benchmark wraps toolkit functions and methods by name (`bench/tracer.py`),
builds its inputs with toolkit calls (`bench/inputs.py`) and runs `trc`
commands with options (`bench/worker.py`). A rename that breaks any of them
fails here, in the unit suite, not first in a benchmark run.
"""

import json
from pathlib import Path

import pytest

from trc_toolkit import cli
from trc_toolkit.client import EndpointConfig, ResponseCache, collect_responses
from trc_toolkit.manifest import read_jsonl
from trc_toolkit.prompting import PromptRow

from test_client import MockEndpoint

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))   # undone, with what inputs.py adds, after the test
    import inputs
    import tracer
    return inputs, tracer


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_option_the_worker_passes_is_declared(bench, tmp_path, workload):
    import worker
    plan = worker.stages(workload, seed=31, inputs=tmp_path, port=9, n_instances=40)
    argvs = [step for _, step in plan if not callable(step)]
    assert argvs
    for command, *args in argvs:
        declared = {opt for param in cli.main.commands[command].params for opt in param.opts}
        assert {a for a in args if a.startswith("--")} <= declared, command


def test_tracer_wraps_and_unwraps_every_name(bench):
    _, tracer = bench
    t = tracer.Tracer()
    try:
        tracer.instrument(t)   # a missing name raises AttributeError or KeyError here
    finally:
        left = t.remove()
    assert left == []


def test_transport_binds_no_name_the_tracer_wraps(bench):
    """A cold collect imports `transport` after `instrument`; a wrapper it bound would stay."""
    _, tracer = bench
    from trc_toolkit import transport
    t = tracer.Tracer()
    try:
        tracer.instrument(t)
        bound = [name for name, value in vars(transport).items()
                 if getattr(value, "bench_traced", False)]
    finally:
        t.remove()
    assert bound == []


def _prepare(inputs, monkeypatch, workload, out):
    """`inputs.prepare`, and the response caches it opened, closed."""
    caches = []   # the set-up leaves its cache open until the process exits; the test closes it

    class ClosedAfterTest(inputs.client.ResponseCache):
        def __init__(self, directory):
            super().__init__(directory)
            caches.append(self)

    monkeypatch.setattr(inputs.client, "ResponseCache", ClosedAfterTest)
    try:
        info = inputs.prepare(workload, seed=31, n_instances=40, out=out)
    finally:
        for cache in caches:
            cache.close()
    return info, caches


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_prepare_each_workload(bench, tmp_path, monkeypatch, workload):
    inputs, _ = bench
    info, caches = _prepare(inputs, monkeypatch, workload, tmp_path)
    assert info["instances"] == 40 and info["records"] > 0
    assert (tmp_path / ("source.jsonl" if workload != "collect-cold" else "dataset.jsonl")).exists()
    if workload != "semantic-prompt":
        assert info["prompts"] == 80
        assert len((tmp_path / "prompts.jsonl").read_text(encoding="utf-8").splitlines()) == 80
    if workload == "offline-warm":
        assert len(caches) == 1 and len(caches[0]) == 80


def test_offline_warm_prefill_is_all_hits_for_collect(bench, tmp_path, monkeypatch):
    """The cache keys the set-up writes are the keys `collect` looks up at its
    default settings, so the warm collect sends nothing."""
    inputs, _ = bench
    _prepare(inputs, monkeypatch, "offline-warm", tmp_path)
    rows = [(r.instance_id, r.reference_kind, r.prompt)
            for r in read_jsonl(tmp_path / "prompts.jsonl", PromptRow)]
    endpoint = MockEndpoint()
    try:
        config = EndpointConfig(base_url=endpoint.url, model_name=inputs.MODEL)
        with ResponseCache(tmp_path / "cache") as cache:
            records = collect_responses(rows, config, cache)
    finally:
        endpoint.close()
    assert endpoint.requests == 0
    assert len(records) == 80 and all(r.error is None for r in records)
