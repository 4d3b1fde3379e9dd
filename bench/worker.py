"""One iteration of a benchmark workload, in a fresh process.

    python3 bench/worker.py --workload W --seed N --instances K --inputs DIR --port P
                            --trace 0|1 [--spans FILE]

Runs the workload's `trc` stages in-process through `cli.main(...,
standalone_mode=False)`, with the current directory as the output
directory, and prints one JSON line: wall time, peak RSS, each stage's exit
code and, when traced, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

from answers import ARMS  # noqa: E402
from inputs import MODEL, PROFILE_LANGS  # noqa: E402
from tracer import Tracer, instrument, layer_metrics  # noqa: E402
from trc_toolkit import cli  # noqa: E402

CLI_STAGES = ["build", "pairs", "subsample", "export-sft", "prompt", "collect",
              "evaluate", "report", "mt-agree"]


def _concat_prompts():
    with open("prompts.jsonl", "wb") as out:
        for reference in ARMS:
            out.write(Path(f"prompts_{reference}.jsonl").read_bytes())


def stages(workload: str, seed: int, inputs: Path, port: int, n_instances: int) -> list:
    """(stage, argv or bench-side step) in run order; outputs go to the cwd."""
    s = str(seed)

    def collect(prompts: str, cache: str) -> tuple:
        return ("collect", ["collect", "--prompts", prompts,
                            "--endpoint", f"http://127.0.0.1:{port}/v1", "--model", MODEL,
                            "--cache-dir", cache, "--parallelism", "2", "--retry-limit", "1",
                            "--seed", s, "--output", "responses.jsonl"])

    def prompt(style: str) -> list:
        return [("prompt", ["prompt", "--dataset", "dataset.jsonl", "--style", style,
                            "--reference", reference, "--seed", s,
                            "--output", f"prompts_{reference}.jsonl"]) for reference in ARMS]

    build = ("build", ["build", str(inputs / "source.jsonl"), "--output", "dataset.jsonl"])
    if workload == "semantic-prompt":
        return [build, *prompt("semantic-cot")]
    if workload == "collect-cold":
        return [collect(str(inputs / "prompts.jsonl"), "cache"),
                ("evaluate", ["evaluate", "--dataset", str(inputs / "dataset.jsonl"),
                              "--responses", "responses.jsonl", "--output", "eval.json"])]
    half = str(n_instances // 2)
    profiles = [a for lang in PROFILE_LANGS
                for a in ("--profile", f"{lang}={inputs / f'corpus_{lang}.txt'}")]
    return [
        build,
        ("pairs", ["pairs", "--dataset", "dataset.jsonl", "--n", half, "--seed", s,
                   "--output", "pairs.jsonl"]),
        ("subsample", ["subsample", "--dataset", "dataset.jsonl", "--n", half, "--seed", s,
                       "--output", "sample.jsonl"]),
        ("export-sft", ["export-sft", "--dataset", "dataset.jsonl", "--pairing", "cross",
                        "--output", "sft.jsonl"]),
        *prompt("icl"),
        ("concat-prompts", _concat_prompts),
        collect("prompts.jsonl", str(inputs / "cache")),
        ("evaluate", ["evaluate", "--dataset", "dataset.jsonl", "--responses",
                      "responses.jsonl", "--output", "eval.json"]),
        ("report", ["report", "--report", "eval.json", "--dataset", "dataset.jsonl",
                    "--output", "report"]),
        ("mt-agree", ["mt-agree", "--hypothesis", str(inputs / "hyp.txt"),
                      "--reference", str(inputs / "ref.txt"), "--expected-lang", "en",
                      *profiles, "--output", "mt.json"]),
    ]


def run_cli(argv: list[str]) -> int:
    """Exit code of one `trc` command; its stdout is discarded."""
    try:
        with redirect_stdout(io.StringIO()):
            cli.main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instances", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    plan = stages(args.workload, args.seed, args.inputs, args.port, args.instances)
    tracer = Tracer() if args.trace else None
    if tracer:
        instrument(tracer)
    codes = []   # [stage, exit code, seconds]
    started = perf_counter()
    for name, step in plan:
        if callable(step):
            step()
            continue
        stage_started = perf_counter()
        with tracer.span(f"cli.{name}") if tracer else nullcontext():
            code = run_cli(step)
        codes.append([name, code, perf_counter() - stage_started])
    wall_s = perf_counter() - started
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "codes": codes,
    }
    if tracer:
        result["still_wrapped"] = tracer.remove()
        result["layers"] = layer_metrics(tracer, CLI_STAGES)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
