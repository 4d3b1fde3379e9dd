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
from .manifest import (read_json, read_jsonl, read_lines, write_json, write_jsonl,
                       write_manifest, write_text)
from .metrics import EvalReport, Response, evaluate, pair_responses
from .querygen import BenchmarkInstance
from .report import build_report, format_text_report

_ENDPOINT = client_mod.EndpointConfig  # its field defaults are `collect`'s


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
    instances = querygen.read_dataset(dataset)
    records = querygen.build_consistency_pairs(instances, n, seed)
    write_jsonl(output, (p.to_dict() for p in records))
    _finish({"n": n}, [dataset], [output], f"wrote {len(records)} pairs -> {output}", seed)


@main.command("export-sft")
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--pairing", type=click.Choice(prompting.PAIRINGS),
              default="cross", show_default=True)
@click.option("--output", required=True, type=click.Path())
def export_sft(dataset, pairing, output):
    """Export instruction-tuning records under the chosen pathway pairing."""
    instances = querygen.read_dataset(dataset)
    records = prompting.export_sft(instances, pairing)
    write_jsonl(output, (r.to_dict() for r in records))
    _finish({"pairing": pairing}, [dataset], [output],
            f"wrote {len(records)} SFT records -> {output}")


@main.command()
@click.option("--dataset", required=True, type=click.Path(exists=True),
              help="Instances to build prompts for.")
@click.option("--pool", type=click.Path(exists=True), default=None,
              help="Demonstration pool; defaults to the dataset itself.")
@click.option("--style", type=click.Choice(prompting.STYLE_KINDS),
              default="icl", show_default=True)
@click.option("--shots", default=prompting.PromptStyle.shots, show_default=True, type=int)
@click.option("--reference", type=click.Choice(querygen.REFERENCE_KINDS),
              default="chronological", show_default=True)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--output", required=True, type=click.Path())
def prompt(dataset, pool, style, shots, reference, seed, output):
    """Render evaluation prompts for every instance in the dataset."""
    style = prompting.PromptStyle(style, shots)
    targets = querygen.read_dataset(dataset)
    demos = read_jsonl(pool, BenchmarkInstance) if pool else targets
    rows = prompting.render_rows(targets, demos, style, reference, seed)
    write_jsonl(output, (row.to_dict() for row in rows))
    inputs = [dataset] + ([pool] if pool else [])
    _finish({"style": style.kind, "shots": style.shots, "reference": reference},
            inputs, [output], f"wrote {len(rows)} prompts -> {output}", seed)


@main.command()
@click.option("--prompts", "prompts_path", required=True, type=click.Path(exists=True))
@click.option("--endpoint", required=True, help="Base URL of the chat-completions API.")
@click.option("--model", required=True)
@click.option("--output", required=True, type=click.Path())
@click.option("--cache-dir", required=True, type=click.Path())
@click.option("--temperature", default=_ENDPOINT.temperature, show_default=True, type=float)
@click.option("--max-new-tokens", default=_ENDPOINT.max_new_tokens, show_default=True, type=int)
@click.option("--parallelism", default=_ENDPOINT.parallelism, show_default=True, type=int)
@click.option("--retry-limit", default=_ENDPOINT.retry_limit, show_default=True, type=int)
@click.option("--timeout", default=_ENDPOINT.timeout, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
def collect(prompts_path, endpoint, model, output, cache_dir, temperature,
            max_new_tokens, parallelism, retry_limit, timeout, seed):
    """Collect model completions for rendered prompts."""
    config = client_mod.EndpointConfig(
        base_url=endpoint, model_name=model, temperature=temperature,
        max_new_tokens=max_new_tokens, parallelism=parallelism,
        retry_limit=retry_limit, timeout=timeout)
    triples = [(r.instance_id, r.reference_kind, r.prompt)
               for r in read_jsonl(prompts_path, prompting.PromptRow)]
    with client_mod.ResponseCache(cache_dir) as cache:
        records = client_mod.collect_responses(triples, config, cache, seed=seed)
    write_jsonl(output, (r.to_dict() for r in records))
    failures = sum(1 for r in records if r.error)
    _finish({"endpoint": endpoint, "model": model, "temperature": temperature,
             "max_new_tokens": max_new_tokens}, [prompts_path], [output],
            f"collected {len(records)} responses ({failures} failed) -> {output}", seed)
    if failures:
        sys.exit(2)


@main.command("evaluate")
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--responses", required=True, type=click.Path(exists=True))
@click.option("--output", required=True, type=click.Path())
def evaluate_cmd(dataset, responses, output):
    """Score collected responses against the dataset."""
    instances = querygen.read_dataset(dataset, across_languages=True)
    report = evaluate(instances, pair_responses(read_jsonl(responses, Response)))
    write_json(output, report.to_dict())
    _finish({}, [dataset, responses], [output],
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
    doc = build_report(read_json(report_path, EvalReport),
                       querygen.read_dataset(dataset),
                       read_json(compare, EvalReport) if compare else None)
    json_path = Path(f"{output}.json")
    text_path = Path(f"{output}.txt")
    text = format_text_report(doc)
    write_json(json_path, doc)
    write_text(text_path, text)
    inputs = [report_path, dataset] + ([compare] if compare else [])
    _finish({"compare": bool(compare)}, inputs, [json_path, text_path], text)


@main.command("mt-agree")
@click.option("--hypothesis", required=True, type=click.Path(exists=True),
              help="Plain-text file, one hypothesis per line.")
@click.option("--reference", required=True, type=click.Path(exists=True),
              help="Parallel plain-text file of references.")
@click.option("--expected-lang", default=None,
              help="Language code the hypotheses should be in (enables TSR).")
@click.option("--profile", "profiles", multiple=True, metavar="LANG=CORPUS",
              help="Language profile corpus, repeatable; needs --expected-lang.")
@click.option("--output", required=True, type=click.Path())
def mt_agree(hypothesis, reference, expected_lang, profiles, output):
    """Translation agreement summary: mean chrF++, mean BLEU-3, optional TSR."""
    if profiles and not expected_lang:
        _fail("--profile needs --expected-lang")
    hyp_lines = read_lines(hypothesis)
    ref_lines = read_lines(reference)
    if len(hyp_lines) != len(ref_lines):
        _fail(f"hypothesis has {len(hyp_lines)} lines, reference {len(ref_lines)}")
    if not hyp_lines:
        _fail("empty input files")
    for n, (hyp, ref) in enumerate(zip(hyp_lines, ref_lines), 1):
        if not hyp.strip() and not ref.strip():  # chrF++ would score it 100, BLEU-3 0
            _fail(f"blank line pair at {hypothesis}:{n} and {reference}:{n}")
    chrf_scores = [translation.chrf_pp(h, r) for h, r in zip(hyp_lines, ref_lines)]
    bleu_scores = [translation.bleu_n(h, r) for h, r in zip(hyp_lines, ref_lines)]
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
            lang_profiles.append(translation.LanguageProfile.from_corpus(lang, read_lines(corpus)))
            inputs.append(corpus)
        summary["tsr"] = round(translation.translation_success_rate(
            hyp_lines, expected_lang, lang_profiles), 2)
    write_json(output, summary)
    _finish({"expected_lang": expected_lang}, inputs, [output],
            json.dumps(summary))


@main.command()
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--n", required=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--output", required=True, type=click.Path())
def subsample(dataset, n, seed, output):
    """Seeded order-preserving subsample of a dataset."""
    instances = querygen.read_dataset(dataset)
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
    except (ToolkitError, ValueError, OSError) as exc:
        _fail(str(exc))


if __name__ == "__main__":
    run()
