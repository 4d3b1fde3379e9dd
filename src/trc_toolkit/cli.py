"""Command-line surface tying the pipeline together.

Exit codes: 0 success, 1 validation error, 2 partial collection failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import client as client_mod
from . import prompting, querygen, translation
from .errors import ToolkitError
from .manifest import read_jsonl, write_json, write_jsonl, write_manifest
from .metrics import EvalReport, ResponsePair, evaluate
from .querygen import BenchmarkInstance
from .report import build_report, format_text_report

STYLE_BY_FLAG = {
    "zero": "zero_shot",
    "icl": "icl",
    "semantic-icl": "semantic_icl",
    "semantic-cot": "semantic_cot",
}


def _load_dataset(path: str) -> list[BenchmarkInstance]:
    return [BenchmarkInstance.from_dict(r) for r in read_jsonl(path)]


def _load_report(path: str) -> EvalReport:
    return EvalReport.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _finish(config: dict, inputs: list, outputs: list, message: str, seed: int = 0):
    """Write the running command's manifest beside its first output, then echo."""
    command = click.get_current_context().info_name
    write_manifest(command, config, inputs, outputs, seed=seed)
    click.echo(message)


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


@click.group()
def main():
    """Temporal referential consistency toolkit."""


@main.command()
@click.argument("source", type=click.Path(exists=True))
@click.option("--output", required=True, type=click.Path())
@click.option("--language", default="en", show_default=True)
@click.option("--skip-log", type=click.Path(), default=None,
              help="Where to write {id, reason} records for skipped sources.")
def build(source, output, language, skip_log):
    """Build the paired-query dataset from raw event-event source JSONL."""
    instances, skips = querygen.build_dataset(read_jsonl(source), language=language)
    write_jsonl(output, (inst.to_dict() for inst in instances))
    skip_log = skip_log or f"{output}.skips.jsonl"
    write_jsonl(skip_log, skips)
    _finish({"language": language}, [source], [output, skip_log],
            f"built {len(instances)} instances ({len(skips)} skipped) -> {output}")


@main.command()
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--n", required=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--output", required=True, type=click.Path())
def pairs(dataset, n, seed, output):
    """Export consistency-task pairs (n positive + n antagonist)."""
    instances = _load_dataset(dataset)
    records = querygen.build_consistency_pairs(instances, n, seed)
    write_jsonl(output, (p.to_dict() for p in records))
    _finish({"n": n}, [dataset], [output], f"wrote {len(records)} pairs -> {output}", seed)


@main.command("export-sft")
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--pairing", type=click.Choice(["cross", "unilateral"]),
              default="cross", show_default=True)
@click.option("--instruction", default=prompting.DEFAULT_INSTRUCTION)
@click.option("--output", required=True, type=click.Path())
def export_sft(dataset, pairing, instruction, output):
    """Export instruction-tuning records under the chosen pathway pairing."""
    pairing_mode = "unilateral_absolute" if pairing == "unilateral" else "cross"
    instances = _load_dataset(dataset)
    records = prompting.export_sft(instances, pairing_mode, instruction)
    write_jsonl(output, (r.to_dict() for r in records))
    _finish({"pairing": pairing_mode, "instruction": instruction}, [dataset], [output],
            f"wrote {len(records)} SFT records -> {output}")


@main.command()
@click.option("--dataset", required=True, type=click.Path(exists=True),
              help="Instances to build prompts for.")
@click.option("--pool", type=click.Path(exists=True), default=None,
              help="Demonstration pool; defaults to the dataset itself.")
@click.option("--style", "style_flag", type=click.Choice(sorted(STYLE_BY_FLAG)),
              default="icl", show_default=True)
@click.option("--shots", default=3, show_default=True, type=int)
@click.option("--reference", type=click.Choice(prompting.REFERENCE_KINDS),
              default="chronological", show_default=True)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--output", required=True, type=click.Path())
@click.option("--preview", type=click.Path(), default=None,
              help="Also write the first rendered prompt as plain text.")
def prompt(dataset, pool, style_flag, shots, reference, seed, output, preview):
    """Render evaluation prompts for every instance in the dataset."""
    style = prompting.PromptStyle(STYLE_BY_FLAG[style_flag], shots)
    targets = _load_dataset(dataset)
    by_language: dict[str, list[BenchmarkInstance]] = {}
    for inst in _load_dataset(pool) if pool else targets:
        by_language.setdefault(inst.language, []).append(inst)
    pools = {lang: prompting.DemoPool(items) for lang, items in by_language.items()}
    no_pool = prompting.DemoPool([])
    rows = []
    for inst in targets:
        query = inst.query(reference)
        # the same-language pool minus every entry with the target's id
        candidates = pools.get(inst.language, no_pool).without(inst.id)
        demos = prompting.select_demonstrations(
            candidates, query, style, seed, reference_kind=reference)
        rows.append({
            "instance_id": inst.id,
            "reference_kind": reference,
            "prompt": prompting.render_prompt(query, demos, style, reference),
        })
    write_jsonl(output, rows)
    if preview and rows:
        Path(preview).write_text(rows[0]["prompt"] + "\n", encoding="utf-8")
    inputs = [dataset] + ([pool] if pool else [])
    _finish({"style": style.kind, "shots": style.shots, "reference": reference},
            inputs, [output], f"wrote {len(rows)} prompts -> {output}", seed)


@main.command()
@click.option("--prompts", "prompts_path", required=True, type=click.Path(exists=True))
@click.option("--endpoint", required=True, help="Base URL of the chat-completions API.")
@click.option("--model", required=True)
@click.option("--output", required=True, type=click.Path())
@click.option("--cache-dir", required=True, type=click.Path())
@click.option("--style", "style_flag", type=click.Choice(sorted(STYLE_BY_FLAG)),
              default="icl", show_default=True)
@click.option("--temperature", default=0.0, show_default=True, type=float)
@click.option("--max-new-tokens", default=30, show_default=True, type=int)
@click.option("--parallelism", default=4, show_default=True, type=int)
@click.option("--retry-limit", default=3, show_default=True, type=int)
@click.option("--timeout", default=60.0, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
def collect(prompts_path, endpoint, model, output, cache_dir, style_flag,
            temperature, max_new_tokens, parallelism, retry_limit, timeout, seed):
    """Collect model completions for rendered prompts."""
    config = client_mod.EndpointConfig(
        base_url=endpoint, model_name=model, temperature=temperature,
        max_new_tokens=max_new_tokens, parallelism=parallelism,
        retry_limit=retry_limit, timeout=timeout)
    style = prompting.PromptStyle(STYLE_BY_FLAG[style_flag])
    prompt_rows = list(read_jsonl(prompts_path))
    triples = [(r["instance_id"], r["reference_kind"], r["prompt"]) for r in prompt_rows]
    with client_mod.ResponseCache(cache_dir) as cache:
        records = client_mod.collect_responses(triples, config, cache, style=style, seed=seed)
    write_jsonl(output, (r.to_dict() for r in records))
    failures = sum(1 for r in records if r.error)
    _finish({"endpoint": endpoint, "model": model, "style": style.kind},
            [prompts_path], [output],
            f"collected {len(records)} responses ({failures} failed) -> {output}", seed)
    if failures:
        sys.exit(2)


def _group_responses(rows) -> list[ResponsePair]:
    """Pair each instance's two arms; a row with an error is no answer."""
    arms: dict[str, dict[str, str]] = {}
    for row in rows:
        if row.get("error"):
            continue
        arms.setdefault(row["instance_id"], {})[row["reference_kind"]] = row["answer"]
    pairs = []
    for instance_id, answers in arms.items():
        if "absolute" in answers and "chronological" in answers:
            pairs.append(ResponsePair(instance_id, answers["absolute"],
                                      answers["chronological"]))
    return pairs


@main.command("evaluate")
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--responses", required=True, type=click.Path(exists=True))
@click.option("--output", required=True, type=click.Path())
@click.option("--strict", is_flag=True, help="Compare raw strings, no normalization.")
def evaluate_cmd(dataset, responses, output, strict):
    """Score collected responses against the dataset."""
    instances = _load_dataset(dataset)
    pairs = _group_responses(read_jsonl(responses))
    report = evaluate(instances, pairs, strict=strict)
    write_json(output, report.to_dict())
    _finish({"strict": strict}, [dataset, responses], [output],
            f"scored {report.m} pairs -> {output}")


@main.command("report")
@click.option("--report", "report_path", required=True, type=click.Path(exists=True))
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--compare", type=click.Path(exists=True), default=None,
              help="Baseline evaluation JSON for comparison correlations.")
@click.option("--output", required=True, type=click.Path(),
              help="Output stem; writes <stem>.json and <stem>.txt.")
def report_cmd(report_path, dataset, compare, output):
    """Render the report document (JSON + fixed-width text)."""
    doc = build_report(_load_report(report_path), _load_dataset(dataset),
                       _load_report(compare) if compare else None)
    json_path = Path(f"{output}.json")
    text_path = Path(f"{output}.txt")
    text = format_text_report(doc)
    write_json(json_path, doc)
    text_path.write_text(text, encoding="utf-8")
    inputs = [report_path, dataset] + ([compare] if compare else [])
    _finish({"compare": bool(compare)}, inputs, [json_path, text_path], text)


@main.command("mt-agree")
@click.option("--hypothesis", required=True, type=click.Path(exists=True),
              help="Plain-text file, one hypothesis per line.")
@click.option("--reference", required=True, type=click.Path(exists=True),
              help="Parallel plain-text file of references.")
@click.option("--max-order", default=3, show_default=True, type=int)
@click.option("--expected-lang", default=None,
              help="Language code the hypotheses should be in (enables TSR).")
@click.option("--profile", "profiles", multiple=True, metavar="LANG=CORPUS",
              help="Language profile corpus, repeatable.")
@click.option("--output", required=True, type=click.Path())
def mt_agree(hypothesis, reference, max_order, expected_lang, profiles, output):
    """Translation agreement summary: mean chrF++, mean BLEU-n, optional TSR."""
    hyp_lines = Path(hypothesis).read_text(encoding="utf-8").splitlines()
    ref_lines = Path(reference).read_text(encoding="utf-8").splitlines()
    if len(hyp_lines) != len(ref_lines):
        _fail(f"hypothesis has {len(hyp_lines)} lines, reference {len(ref_lines)}")
    if not hyp_lines:
        _fail("empty input files")
    chrf_scores = [translation.chrf_pp(h, r) for h, r in zip(hyp_lines, ref_lines)]
    bleu_scores = [translation.bleu_n(h, r, max_order) for h, r in zip(hyp_lines, ref_lines)]
    summary = {
        "chrf_pp_mean": round(sum(chrf_scores) / len(chrf_scores), 2),
        "bleu_n_mean": round(sum(bleu_scores) / len(bleu_scores), 4),
        "tsr": None,
    }
    inputs = [hypothesis, reference]
    if expected_lang:
        lang_profiles = []
        for spec in profiles:
            lang, _, corpus = spec.partition("=")
            if not corpus:
                _fail(f"--profile must be LANG=CORPUS, got {spec!r}")
            lines = Path(corpus).read_text(encoding="utf-8").splitlines()
            lang_profiles.append(translation.LanguageProfile.from_corpus(lang, lines))
            inputs.append(corpus)
        summary["tsr"] = round(translation.translation_success_rate(
            hyp_lines, expected_lang, lang_profiles), 2)
    write_json(output, summary)
    _finish({"max_order": max_order, "expected_lang": expected_lang}, inputs, [output],
            json.dumps(summary))


@main.command()
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--n", required=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--output", required=True, type=click.Path())
def subsample(dataset, n, seed, output):
    """Seeded order-preserving subsample of a dataset."""
    instances = _load_dataset(dataset)
    chosen = querygen.subsample(instances, n, seed)
    write_jsonl(output, (inst.to_dict() for inst in chosen))
    _finish({"n": n}, [dataset], [output], f"wrote {len(chosen)} instances -> {output}", seed)


def run():
    try:
        main(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except (ToolkitError, KeyError, ValueError, OSError) as exc:
        _fail(str(exc))


if __name__ == "__main__":
    run()
