"""The benchmark trend files, `BENCH_<workload>.json` at the repository root.

Each file is a JSON list of entries, one per measured comparison of two
commits over alternating benchmark runs (README, "Benchmark trend files").
This test holds every entry to that schema and every summary figure to the
runs it summarises.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

from trc_toolkit.manifest import decode_json

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
# Exact counts from one traced run per side: they show a trend with no drift,
# except `manifest.sha256_file.bytes` on collect-cold, which moves by some tens
# of bytes between runs of one commit: `evaluate` hashes `responses.jsonl`,
# whose `latency` floats vary in width.
COUNTS = {"trace.spans", "kb.parse_fact_context.calls", "manifest.sha256_file.bytes",
          "metrics.normalize_answer.calls_per_pair", "client.cache.hits",
          "prompting.select_demonstrations.calls"}
SIDES = ("parent", "change")
ENTRY_KEYS = {"label", "sha", "parent_sha", "date", "python", "cpus", "seconds", "seeds",
              "pairs", "metrics", "counts", "correct", "failed_iterations", "digests_equal",
              "notes"}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def test_every_workload_has_a_trend_file():
    names = sorted(path.name for path in ROOT.glob("BENCH_*.json"))
    assert names == sorted(f"BENCH_{workload}.json" for workload in WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trend_entries_follow_the_schema(workload):
    entries = decode_json((ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    assert isinstance(entries, list) and entries
    for entry in entries:
        assert set(entry) == ENTRY_KEYS
        assert len(entry["sha"]) == len(entry["parent_sha"]) == 40
        assert entry["pairs"] >= 2 and entry["seconds"] == BENCHMARK["run_seconds"]
        assert set(entry["metrics"]) == set(END_TO_END)
        for name, metric in entry["metrics"].items():
            assert metric["unit"] == END_TO_END[name]["unit"]
            assert metric["better"] == END_TO_END[name]["better"]
            for side in SIDES:
                runs = metric[side]["runs"]
                assert len(runs) == entry["pairs"]
                q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
                assert _close(metric[side]["median"], statistics.median(runs))
                assert _close(metric[side]["q1"], q1) and _close(metric[side]["q3"], q3)
            assert _close(metric["ratio"], metric["change"]["median"] / metric["parent"]["median"])
            sign = 1 if metric["better"] == "higher" else -1
            won = sum(sign * (c - p) > 0
                      for p, c in zip(metric["parent"]["runs"], metric["change"]["runs"]))
            assert metric["pairs_won"] == won
        assert set(entry["counts"]) <= COUNTS
        for count in entry["counts"].values():
            assert set(count) == set(SIDES)
        assert set(entry["failed_iterations"]) == set(SIDES)
        assert isinstance(entry["correct"], bool) and isinstance(entry["digests_equal"], bool)
        assert isinstance(entry["notes"], str)
