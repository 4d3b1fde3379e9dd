"""Benchmark set-up: the inputs of each workload, made from the workload seed.

    python3 bench/inputs.py --workload W --seed N --instances K --out DIR [--min-seconds S]

Set-up covers synthkb generation, prompt pre-rendering and the cache
pre-fill. One sample of the `setup_s` metric is a fresh process that runs
`prepare` into an emptied DIR once, and again until --min-seconds have
passed, and takes the fastest run, so that a burst of load from other
tenants of a shared machine does not decide a cheap set-up's sample. It
prints {"setup_s", "info"} as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from collections.abc import Sequence
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import synthkb  # noqa: E402
from answers import ARMS, AnswerRule, target_question  # noqa: E402
from trc_toolkit import client, prompting, querygen  # noqa: E402
from trc_toolkit.manifest import write_jsonl  # noqa: E402

MODEL = "bench-model"
SHOTS = 3
PROFILE_LANGS = ("en", "xx")   # xx: the English corpus under ROT13


def source_records(seed: int, n_instances: int) -> tuple[list[dict], int]:
    """synthkb source records that build into exactly `n_instances` instances.

    Timelines are drawn until they can supply that many; records are then
    cut at the n-th buildable one, so the workload size does not vary with
    the seed. Returns (records, timelines drawn).
    """
    rng = random.Random(seed)
    timelines = []
    buildable = 0
    while buildable < n_instances:
        timeline = synthkb.make_timeline(rng, len(timelines))
        timelines.append(timeline)
        buildable += 2 * (len(timeline) - 1)
    records = []
    built = 0
    for record in synthkb.make_records(timelines):
        if built == n_instances:
            break
        records.append(record)
        built += "answer" in record
    return records, len(timelines)


class _Without(Sequence):
    """A pool minus one member, as `trc prompt` filters it, without copying."""

    def __init__(self, items: list, skip: int):
        self.items, self.skip = items, skip

    def __len__(self) -> int:
        return len(self.items) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.items[i + (i >= self.skip)]


def render_icl_prompts(instances: list, seed: int) -> list[dict]:
    """The rows `trc prompt --style icl --seed SEED` writes, absolute then chronological."""
    style = prompting.PromptStyle("icl", SHOTS)
    pools: dict[str, list] = {}
    position = {}
    for inst in instances:
        pool = pools.setdefault(inst.language, [])
        position[inst.id] = len(pool)
        pool.append(inst)
    rows = []
    for reference in ARMS:
        for inst in instances:
            query = inst.query(reference)
            candidates = _Without(pools[inst.language], position[inst.id])
            demos = prompting.select_demonstrations(candidates, query, style, seed,
                                                    reference_kind=reference)
            rows.append({"instance_id": inst.id, "reference_kind": reference,
                         "prompt": prompting.render_prompt(query, demos, style, reference)})
    return rows


def answer_table(instances: list) -> list[dict]:
    return [{"id": inst.id, "gold": inst.answer, "absolute": inst.query_absolute,
             "chronological": inst.query_chronological} for inst in instances]


def _rot13(text: str) -> str:
    return text.translate(str.maketrans(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
        "nopqrstuvwxyzabcdefghijklmNOPQRSTUVWXYZABCDEFGHIJKLM"))


def prepare(workload: str, seed: int, n_instances: int, out: Path) -> dict:
    """Write the inputs of one workload into `out`; returns their sizes."""
    records, n_timelines = source_records(seed, n_instances)
    info = {"timelines": n_timelines, "records": len(records), "instances": n_instances}
    if workload == "semantic-prompt":
        write_jsonl(out / "source.jsonl", records)
        return info

    instances, _ = querygen.build_dataset(records)
    table = answer_table(instances)
    (out / "table.json").write_text(json.dumps(table), encoding="utf-8")
    prompts = render_icl_prompts(instances, seed)
    write_jsonl(out / "prompts.jsonl", prompts)
    info["prompts"] = len(prompts)
    if workload == "collect-cold":
        write_jsonl(out / "dataset.jsonl", (inst.to_dict() for inst in instances))
        return info

    write_jsonl(out / "source.jsonl", records)
    rule = AnswerRule(table, seed)
    cache = client.ResponseCache(out / "cache")
    for row in prompts:
        key = client.prompt_hash(MODEL, row["prompt"])
        cache.put(key, {"prompt_hash": key,
                        "raw_completion": rule.completion[target_question(row["prompt"])],
                        "latency": 0.0, "model_name": MODEL})
    for name, field in (("hyp.txt", "query_absolute"), ("ref.txt", "query_chronological")):
        (out / name).write_text("".join(getattr(inst, field) + "\n" for inst in instances),
                                encoding="utf-8")
    corpus = list(dict.fromkeys(inst.fact_context for inst in instances))
    (out / "corpus_en.txt").write_text("\n".join(corpus) + "\n", encoding="utf-8")
    (out / "corpus_xx.txt").write_text("\n".join(map(_rot13, corpus)) + "\n", encoding="utf-8")
    return info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instances", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--min-seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    times = []
    while not times or sum(times) < args.min_seconds:
        for child in args.out.iterdir():
            shutil.rmtree(child) if child.is_dir() else child.unlink()
        started = perf_counter()
        info = prepare(args.workload, args.seed, args.instances, args.out)
        times.append(perf_counter() - started)
    print(json.dumps({"setup_s": min(times), "info": info}))


if __name__ == "__main__":
    main()
