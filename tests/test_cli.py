import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import click
import pytest

import trc_toolkit
from trc_toolkit import cli, prompting, querygen, translation
from trc_toolkit.manifest import read_jsonl, write_jsonl
from trc_toolkit.translation import chrf_pp

from synthkb import make_records, make_timelines
from test_client import MockEndpoint
from test_manifest import NETWORK_MODULES

# The `trc` child process imports the same package as the tests, installed or not.
_PACKAGE_ROOT = str(Path(trc_toolkit.__file__).resolve().parents[1])
_TRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))


def trc(*args, cwd=None, **env):
    return subprocess.run([sys.executable, "-m", "trc_toolkit.cli", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=dict(_TRC_ENV, **env))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    records = make_records(make_timelines(15, seed=21))
    write_jsonl(root / "source.jsonl", records)
    result = trc("build", root / "source.jsonl", "--output", root / "data.jsonl")
    assert result.returncode == 0, result.stderr
    return root


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestBuild:
    def test_outputs_and_manifest(self, workspace):
        assert (workspace / "data.jsonl").exists()
        assert (workspace / "data.jsonl.skips.jsonl").exists()
        manifest = json.loads((workspace / "data.jsonl.manifest.json").read_text())
        assert manifest["command"] == "build"
        assert manifest["seed"] == 0
        assert len(manifest["input_digests"]) == 1

    def test_reproducible_output_digest(self, workspace):
        result = trc("build", workspace / "source.jsonl",
                     "--output", workspace / "data2.jsonl")
        assert result.returncode == 0
        assert digest(workspace / "data.jsonl") == digest(workspace / "data2.jsonl")

    def test_missing_source_exits_1(self, workspace):
        result = trc("build", workspace / "nope.jsonl", "--output", workspace / "x.jsonl")
        assert result.returncode == 1

    def test_stable_field_order(self, workspace):
        first = next(read_jsonl(workspace / "data.jsonl"))
        assert list(first) == [
            "id", "language", "relation", "entity_type", "direction",
            "query_absolute", "query_chronological", "answer",
            "pathway_time_oriented", "pathway_event_oriented", "fact_context"]


class TestPairs:
    def test_pairs_roundtrip(self, workspace):
        result = trc("pairs", "--dataset", workspace / "data.jsonl", "--n", 5,
                     "--seed", 3, "--output", workspace / "pairs.jsonl")
        assert result.returncode == 0, result.stderr
        rows = list(read_jsonl(workspace / "pairs.jsonl"))
        assert len(rows) == 10
        assert sum(r["label"] for r in rows) == 5

    def test_seeded_determinism(self, workspace):
        trc("pairs", "--dataset", workspace / "data.jsonl", "--n", 5,
            "--seed", 3, "--output", workspace / "pairs_b.jsonl")
        assert digest(workspace / "pairs.jsonl") == digest(workspace / "pairs_b.jsonl")


class TestExportSft:
    def test_cross(self, workspace):
        result = trc("export-sft", "--dataset", workspace / "data.jsonl",
                     "--pairing", "cross", "--output", workspace / "sft.jsonl")
        assert result.returncode == 0, result.stderr
        rows = list(read_jsonl(workspace / "sft.jsonl"))
        dataset_size = len(list(read_jsonl(workspace / "data.jsonl")))
        assert len(rows) == 2 * dataset_size
        assert set(rows[0]) == {"instruction", "input", "output", "pairing"}

    def test_unilateral(self, workspace):
        trc("export-sft", "--dataset", workspace / "data.jsonl",
            "--pairing", "unilateral", "--output", workspace / "sft_uni.jsonl")
        rows = list(read_jsonl(workspace / "sft_uni.jsonl"))
        dataset_size = len(list(read_jsonl(workspace / "data.jsonl")))
        assert len(rows) == dataset_size
        assert all(r["pairing"] == "unilateral" for r in rows)


class TestPrompt:
    def test_semantic_cot_prompts(self, workspace):
        result = trc("prompt", "--dataset", workspace / "data.jsonl",
                     "--style", "semantic-cot", "--shots", 2,
                     "--reference", "chronological", "--seed", 1,
                     "--output", workspace / "prompts.jsonl")
        assert result.returncode == 0, result.stderr
        rows = list(read_jsonl(workspace / "prompts.jsonl"))
        assert rows and all("because" in r["prompt"] for r in rows)
        assert rows[0]["prompt"].startswith("Question:")

    @pytest.mark.parametrize("style", ["icl", "semantic-icl"])
    def test_pool_too_small_exits_1(self, workspace, style):
        rows = list(read_jsonl(workspace / "data.jsonl"))[:3]
        write_jsonl(workspace / "three.jsonl", rows)
        result = trc("prompt", "--dataset", workspace / "three.jsonl", "--style", style,
                     "--shots", 3, "--output", workspace / f"small-{style}.jsonl")
        assert result.returncode == 1
        assert result.stderr == "error: pool of 2 cannot supply 3 shots\n"

    def test_zero_shot(self, workspace):
        result = trc("prompt", "--dataset", workspace / "data.jsonl",
                     "--style", "zero", "--shots", 0,
                     "--output", workspace / "prompts_zero.jsonl")
        assert result.returncode == 0, result.stderr
        row = next(read_jsonl(workspace / "prompts_zero.jsonl"))
        assert row["prompt"].count("Question:") == 1

    @pytest.mark.parametrize("style", ["zero", "icl", "semantic-icl", "semantic-cot"])
    def test_manifest_records_the_style_word(self, workspace, style):
        output = workspace / f"prompts-word-{style}.jsonl"
        result = trc("prompt", "--dataset", workspace / "data.jsonl", "--style", style,
                     "--shots", 1, "--output", output)
        assert result.returncode == 0, result.stderr
        config = {"style": style, "shots": 0 if style == "zero" else 1,
                  "reference": "chronological"}
        manifest = json.loads(Path(f"{output}.manifest.json").read_text())
        assert manifest["config_digest"] == hashlib.sha256(
            json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()



@pytest.fixture(scope="module")
def scored(workspace):
    instances = list(read_jsonl(workspace / "data.jsonl"))
    responses = []
    for inst in instances:
        for kind in ("absolute", "chronological"):
            responses.append({
                "instance_id": inst["id"], "reference_kind": kind,
                "answer": inst["answer"], "raw_completion": inst["answer"]})
    write_jsonl(workspace / "responses.jsonl", responses)
    result = trc("evaluate", "--dataset", workspace / "data.jsonl",
                 "--responses", workspace / "responses.jsonl",
                 "--output", workspace / "eval.json")
    assert result.returncode == 0, result.stderr
    return workspace


class TestEvaluateAndReport:
    def test_perfect_scores(self, scored):
        report = json.loads((scored / "eval.json").read_text())
        assert report["trc"] == report["trcf"] == 100.0
        assert report["dev_em"] == 0.0

    def test_report_outputs(self, scored):
        result = trc("report", "--report", scored / "eval.json",
                     "--dataset", scored / "data.jsonl",
                     "--output", scored / "final")
        assert result.returncode == 0, result.stderr
        doc = json.loads((scored / "final.json").read_text())
        assert "correlations" in doc
        text = (scored / "final.txt").read_text()
        assert "Temp-Ref-Cons" in text and "Temp-Ref-Cons-Fact" in text

    def test_report_into_missing_directory(self, scored):
        stem = scored / "missing" / "dir" / "final"
        result = trc("report", "--report", scored / "eval.json",
                     "--dataset", scored / "data.jsonl", "--output", stem)
        assert result.returncode == 0, result.stderr
        assert Path(f"{stem}.txt").read_text(encoding="utf-8") + "\n" == result.stdout
        assert "correlations" in json.loads(Path(f"{stem}.json").read_text())
        assert Path(f"{stem}.json.manifest.json").exists()

    def test_report_with_comparison(self, scored):
        result = trc("report", "--report", scored / "eval.json",
                     "--dataset", scored / "data.jsonl",
                     "--compare", scored / "eval.json",
                     "--output", scored / "final_cmp")
        assert result.returncode == 0, result.stderr
        doc = json.loads((scored / "final_cmp.json").read_text())
        assert "baseline_trcf_vs_trcf" in doc["correlations"]

    def test_errored_rows_are_not_scored(self, workspace):
        # the first instance failed on both arms, the second on one; every
        # other instance is answered correctly on both
        instances = list(read_jsonl(workspace / "data.jsonl"))
        responses = []
        for k, inst in enumerate(instances):
            for kind in ("absolute", "chronological"):
                failed = k == 0 or (k == 1 and kind == "absolute")
                answer = "" if failed else inst["answer"]
                responses.append({
                    "instance_id": inst["id"], "reference_kind": kind,
                    "answer": answer, "raw_completion": answer,
                    "error": "HTTP 503" if failed else None})
        write_jsonl(workspace / "errored.jsonl", responses)
        result = trc("evaluate", "--dataset", workspace / "data.jsonl",
                     "--responses", workspace / "errored.jsonl",
                     "--output", workspace / "eval_errored.json")
        assert result.returncode == 0, result.stderr
        report = json.loads((workspace / "eval_errored.json").read_text())
        assert report["m"] == len(instances) - 2
        assert report["em_atr"] == report["em_ctr"] == report["trcf"] == 100.0
        assert result.stdout == (f"scored {len(instances) - 2} pairs -> "
                                 f"{workspace / 'eval_errored.json'}\n")

    def test_two_models_in_one_responses_file_exit_1(self, workspace):
        # model A answered every absolute arm and model B every chronological one
        instances = list(read_jsonl(workspace / "data.jsonl"))
        responses = [{"instance_id": inst["id"], "reference_kind": kind,
                      "answer": inst["answer"], "raw_completion": inst["answer"],
                      "model_name": model, "error": None}
                     for inst in instances
                     for kind, model in (("absolute", "model-a"), ("chronological", "model-b"))]
        write_jsonl(workspace / "two_models.jsonl", responses)
        result = trc("evaluate", "--dataset", workspace / "data.jsonl",
                     "--responses", workspace / "two_models.jsonl",
                     "--output", workspace / "eval_two_models.json")
        assert result.returncode == 1
        assert result.stderr == ("error: responses from two models, 'model-a' and 'model-b', "
                                 f"at instance {instances[0]['id']!r}\n")
        assert not (workspace / "eval_two_models.json").exists()

    def test_duplicate_response_rows_exit_1(self, workspace):
        instances = list(read_jsonl(workspace / "data.jsonl"))
        responses = [{"instance_id": inst["id"], "reference_kind": kind,
                      "answer": inst["answer"], "raw_completion": inst["answer"], "error": None}
                     for inst in instances for kind in ("absolute", "chronological")]
        # a second chronological row for the third instance, with another answer
        responses.append(dict(responses[5], answer="Nobody", raw_completion="Nobody"))
        write_jsonl(workspace / "duplicated.jsonl", responses)
        result = trc("evaluate", "--dataset", workspace / "data.jsonl",
                     "--responses", workspace / "duplicated.jsonl",
                     "--output", workspace / "eval_duplicated.json")
        assert result.returncode == 1
        assert result.stderr == (f"error: second chronological response for instance "
                                 f"{instances[2]['id']!r}\n")
        assert not (workspace / "eval_duplicated.json").exists()

    def test_null_answer_exits_1(self, workspace):
        instances = list(read_jsonl(workspace / "data.jsonl"))
        responses = [{"instance_id": inst["id"], "reference_kind": kind,
                      "answer": inst["answer"], "raw_completion": inst["answer"], "error": None}
                     for inst in instances for kind in ("absolute", "chronological")]
        responses[3]["answer"] = None  # the second instance's chronological arm
        write_jsonl(workspace / "null_answer.jsonl", responses)
        result = trc("evaluate", "--dataset", workspace / "data.jsonl",
                     "--responses", workspace / "null_answer.jsonl",
                     "--output", workspace / "eval_null_answer.json")
        assert result.returncode == 1
        assert result.stderr == (f"error: {workspace / 'null_answer.jsonl'}:4: "
                                 f"field 'answer' is null, expected string\n")
        assert not (workspace / "eval_null_answer.json").exists()

    def test_repeated_dataset_id_exits_1(self, scored):
        instances = list(read_jsonl(scored / "data.jsonl"))
        # the second instance again under the first one's id, listed first
        write_jsonl(scored / "data_repeated.jsonl",
                    [dict(instances[1], id=instances[0]["id"])] + instances)
        result = trc("evaluate", "--dataset", scored / "data_repeated.jsonl",
                     "--responses", scored / "responses.jsonl",
                     "--output", scored / "eval_repeated.json")
        assert result.returncode == 1
        assert result.stderr == (f"error: {scored / 'data_repeated.jsonl'}:2: dataset repeats "
                                 f"instance id {instances[0]['id']!r} in language 'en'\n")
        assert not (scored / "eval_repeated.json").exists()

    def test_an_id_repeated_in_another_language_exits_1(self, scored):
        # responses carry no language, so evaluate cannot tell the two apart
        instances = list(read_jsonl(scored / "data.jsonl"))
        write_jsonl(scored / "data_bilingual_eval.jsonl",
                    instances + [dict(instances[1], language="fr")])
        result = trc("evaluate", "--dataset", scored / "data_bilingual_eval.jsonl",
                     "--responses", scored / "responses.jsonl",
                     "--output", scored / "eval_bilingual.json")
        assert result.returncode == 1
        # the second row of the id is the last one, after every instance once
        assert result.stderr == (f"error: {scored / 'data_bilingual_eval.jsonl'}:"
                                 f"{len(instances) + 1}: dataset repeats "
                                 f"instance id {instances[1]['id']!r}\n")
        assert not (scored / "eval_bilingual.json").exists()

    @pytest.mark.parametrize("hash_seed", ["0", "1", "2", "3"])
    def test_entity_types_absent_from_the_dataset_are_named_in_order(self, scored, hash_seed):
        report = json.loads((scored / "eval.json").read_text())
        report["per_entity"] = {name: [50.0, 50.0, 2] for name in ("gamma", "alpha", "beta")}
        (scored / "eval_unknown.json").write_text(json.dumps(report))
        result = trc("report", "--report", scored / "eval_unknown.json",
                     "--dataset", scored / "data.jsonl", "--output", scored / "unknown",
                     PYTHONHASHSEED=hash_seed)
        assert result.returncode == 1
        assert result.stderr == ("error: report covers entity types absent from dataset: "
                                 "'alpha', 'beta', 'gamma'\n")
        assert not list(scored.glob("unknown.*"))

    def test_report_file_missing_a_field_exits_1(self, scored):
        report = json.loads((scored / "eval.json").read_text())
        del report["per_language"]
        (scored / "eval_partial.json").write_text(json.dumps(report))
        result = trc("report", "--report", scored / "eval_partial.json",
                     "--dataset", scored / "data.jsonl", "--output", scored / "partial")
        assert result.returncode == 1
        assert result.stderr == \
            f"error: {scored / 'eval_partial.json'}: field 'per_language' is missing\n"
        assert not (scored / "partial.json").exists()


class TestCollect:
    def test_collect_and_cache(self, workspace):
        endpoint = MockEndpoint()
        try:
            prompts = [{"instance_id": f"i{k}", "reference_kind": "absolute",
                        "prompt": f"question {k}"} for k in range(4)]
            write_jsonl(workspace / "cprompts.jsonl", prompts)
            result = trc("collect", "--prompts", workspace / "cprompts.jsonl",
                         "--endpoint", endpoint.url, "--model", "demo",
                         "--output", workspace / "collected.jsonl",
                         "--cache-dir", workspace / "cache", "--parallelism", 2)
            assert result.returncode == 0, result.stderr
            rows = list(read_jsonl(workspace / "collected.jsonl"))
            assert len(rows) == 4 and all(r["error"] is None for r in rows)
            served = endpoint.requests
            # warm cache: identical rerun makes no requests
            result = trc("collect", "--prompts", workspace / "cprompts.jsonl",
                         "--endpoint", endpoint.url, "--model", "demo",
                         "--output", workspace / "collected2.jsonl",
                         "--cache-dir", workspace / "cache")
            assert result.returncode == 0
            assert endpoint.requests == served
            assert digest(workspace / "collected.jsonl") == \
                digest(workspace / "collected2.jsonl")
        finally:
            endpoint.close()

    def test_partial_failure_exits_2(self, workspace):
        endpoint = MockEndpoint()
        endpoint.status_script = [500] * 50
        try:
            prompts = [{"instance_id": "x0", "reference_kind": "absolute",
                        "prompt": "will fail"}]
            write_jsonl(workspace / "fprompts.jsonl", prompts)
            result = trc("collect", "--prompts", workspace / "fprompts.jsonl",
                         "--endpoint", endpoint.url, "--model", "demo",
                         "--output", workspace / "failed.jsonl",
                         "--cache-dir", workspace / "cache_f",
                         "--retry-limit", 0)
            assert result.returncode == 2
        finally:
            endpoint.close()

    def test_null_content_is_an_error_row_and_not_cached(self, workspace):
        prompts = workspace / "nprompts.jsonl"
        write_jsonl(prompts, [{"instance_id": "n0", "reference_kind": "absolute",
                               "prompt": "null reply"}])
        cache = workspace / "cache_null"
        endpoint = MockEndpoint()
        try:
            endpoint.reply = lambda prompt: None
            args = ("collect", "--prompts", prompts, "--endpoint", endpoint.url,
                    "--model", "demo", "--output", workspace / "nulls.jsonl",
                    "--cache-dir", cache, "--retry-limit", 0)
            result = trc(*args)
            assert result.returncode == 2, result.stderr
            [row] = read_jsonl(workspace / "nulls.jsonl")
            assert row["error"] == "malformed response body: content is null"
            assert not (cache / "cache.jsonl").exists()
            endpoint.reply = lambda prompt: "an answer"
            result = trc(*args)
            assert result.returncode == 0, result.stderr
            [row] = read_jsonl(workspace / "nulls.jsonl")
            assert (row["answer"], row["error"]) == ("an answer", None)
            assert len((cache / "cache.jsonl").read_text().splitlines()) == 1
        finally:
            endpoint.close()

    def test_manifest_records_generation_settings(self, workspace):
        write_jsonl(workspace / "tprompts.jsonl", [
            {"instance_id": "t0", "reference_kind": "absolute", "prompt": "warm or cold"}])
        endpoint = MockEndpoint()
        digests = []
        try:
            for temperature in (0, 0.7):
                output = workspace / f"temp{temperature}.jsonl"
                result = trc("collect", "--prompts", workspace / "tprompts.jsonl",
                             "--endpoint", endpoint.url, "--model", "demo", "--output", output,
                             "--cache-dir", workspace / "cache_t", "--temperature", temperature)
                assert result.returncode == 0, result.stderr
                manifest = Path(f"{output}.manifest.json").read_text()
                digests.append(json.loads(manifest)["config_digest"])
        finally:
            endpoint.close()
        assert endpoint.requests == 2   # the second setting is no cache hit
        assert digests[0] != digests[1]

    @pytest.mark.parametrize("option, value, message", [
        ("--timeout", 0, "timeout must be > 0 seconds, got 0.0"),
        ("--timeout", -1, "timeout must be > 0 seconds, got -1.0"),
        ("--max-new-tokens", 0, "max_new_tokens must be >= 1, got 0"),
        ("--temperature", "nan", "temperature must be finite and >= 0, got nan"),
        ("--timeout", "inf", f"timeout must be <= {threading.TIMEOUT_MAX} s, got inf"),
        ("--retry-limit", -1, "retry_limit must be >= 0"),
        # a repeated option takes its last value, so this replaces the mock's URL
        ("--endpoint", "ftp://h/v1",
         "base_url must be an http:// or https:// URL, got 'ftp://h/v1'"),
    ])
    def test_unusable_setting_exits_1_before_any_request(self, workspace, option, value,
                                                          message):
        write_jsonl(workspace / "uprompts.jsonl", [
            {"instance_id": "u0", "reference_kind": "absolute", "prompt": "never sent"}])
        endpoint = MockEndpoint()
        try:
            result = trc("collect", "--prompts", workspace / "uprompts.jsonl",
                         "--endpoint", endpoint.url, "--model", "demo",
                         "--output", workspace / "unsent.jsonl",
                         "--cache-dir", workspace / "cache_u", option, value)
        finally:
            endpoint.close()
        assert (result.returncode, result.stderr) == (1, f"error: {message}\n")
        assert endpoint.requests == 0
        assert not (workspace / "unsent.jsonl").exists()

    def test_each_prompt_row_is_read_by_its_own_style(self, workspace, tmp_path):
        """With no option, a semantic-cot row is read after `Answer:` and an
        icl row of the same file by its first line."""
        rows = []
        for style in ("semantic-cot", "icl"):
            result = trc("prompt", "--dataset", workspace / "data.jsonl", "--style", style,
                         "--shots", 2, "--output", tmp_path / f"{style}.jsonl")
            assert result.returncode == 0, result.stderr
            rows += list(read_jsonl(tmp_path / f"{style}.jsonl"))[:3]
        write_jsonl(tmp_path / "mixed.jsonl", rows)
        endpoint = MockEndpoint()
        endpoint.reply = lambda prompt: "because of a reasoning line\nAnswer: X"
        try:
            result = trc("collect", "--prompts", tmp_path / "mixed.jsonl",
                         "--endpoint", endpoint.url, "--model", "demo",
                         "--output", tmp_path / "responses.jsonl",
                         "--cache-dir", tmp_path / "cache")
        finally:
            endpoint.close()
        assert result.returncode == 0, result.stderr
        assert [r["answer"] for r in read_jsonl(tmp_path / "responses.jsonl")] == \
            ["X"] * 3 + ["because of a reasoning line"] * 3

    def test_unknown_reference_kind_exits_1_before_any_request(self, tmp_path):
        write_jsonl(tmp_path / "prompts.jsonl", [
            {"instance_id": "b0", "reference_kind": "bogus", "prompt": "q"}])
        endpoint = MockEndpoint()
        try:
            result = trc("collect", "--prompts", tmp_path / "prompts.jsonl",
                         "--endpoint", endpoint.url, "--model", "demo",
                         "--output", tmp_path / "responses.jsonl",
                         "--cache-dir", tmp_path / "cache")
        finally:
            endpoint.close()
        assert result.returncode == 1
        assert result.stderr == (f"error: {tmp_path / 'prompts.jsonl'}:1: "
                                 "unknown reference kind 'bogus'\n")
        assert endpoint.requests == 0
        assert not (tmp_path / "responses.jsonl").exists()

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "row is array, expected object"),
        ('{"a": 1}', "field 'prompt_hash' is missing"),
        ('{"prompt_hash": "x", "raw_completion": null}',
         "field 'raw_completion' is null, expected string"),
    ], ids=["array", "no-hash", "null-completion"])
    def test_bad_cache_row_exits_1_naming_its_line(self, tmp_path, line, message):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "cache.jsonl").write_text(line + "\n")
        write_jsonl(tmp_path / "prompts.jsonl", [
            {"instance_id": "b0", "reference_kind": "absolute", "prompt": "q"}])
        # the cache is read before any request, so the endpoint is never reached
        result = trc("collect", "--prompts", tmp_path / "prompts.jsonl",
                     "--endpoint", "http://127.0.0.1:9", "--model", "demo",
                     "--output", tmp_path / "responses.jsonl", "--cache-dir", cache)
        assert result.returncode == 1
        assert result.stderr == f"error: {cache / 'cache.jsonl'}:1: {message}\n"
        assert not (tmp_path / "responses.jsonl").exists()


class TestDatasetReader:
    """Every command that reads a dataset, `--pool` aside, reads it through
    `querygen.read_dataset`; `evaluate` is tested on its own, since it also
    refuses an id repeated in another language."""

    COMMANDS = {"pairs": ["--n", 1], "subsample": ["--n", 1], "export-sft": [],
                "prompt": ["--style", "zero"], "report": ["--report", "eval.json"]}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_repeated_id_and_language_exits_1_naming_its_line(self, scored, command):
        rows = [json.dumps(row) for row in read_jsonl(scored / "data.jsonl")]
        path = scored / "data_repeated.jsonl"
        # a blank line after the first row, so the line is not the row's index
        path.write_text("\n".join(rows[:1] + [""] + rows[1:] + rows[1:2]) + "\n")
        repeated = json.loads(rows[1])
        args = [scored / a if a == "eval.json" else a for a in self.COMMANDS[command]]
        result = trc(command, "--dataset", path, *args,
                     "--output", scored / f"repeated_{command}")
        assert result.returncode == 1
        assert result.stderr == (f"error: {path}:{len(rows) + 2}: dataset repeats instance id "
                                 f"{repeated['id']!r} in language {repeated['language']!r}\n")
        assert not list(scored.glob(f"repeated_{command}*"))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_an_id_repeated_in_another_language_is_read(self, scored, command):
        rows = list(read_jsonl(scored / "data.jsonl"))
        path = scored / "data_bilingual.jsonl"
        write_jsonl(path, rows + [dict(rows[1], language="fr")])
        args = [scored / a if a == "eval.json" else a for a in self.COMMANDS[command]]
        result = trc(command, "--dataset", path, *args,
                     "--output", scored / f"bilingual_{command}")
        assert result.returncode == 0, result.stderr


class TestMtAgree:
    def test_summary(self, workspace):
        (workspace / "hyp.txt").write_text("le chat noir\nle chien bleu\n")
        (workspace / "ref.txt").write_text("le chat noir\nle chien vert\n")
        result = trc("mt-agree", "--hypothesis", workspace / "hyp.txt",
                     "--reference", workspace / "ref.txt",
                     "--output", workspace / "mt.json")
        assert result.returncode == 0, result.stderr
        summary = json.loads((workspace / "mt.json").read_text())
        assert set(summary) == {"chrf_pp_mean", "bleu_n_mean", "tsr"}
        assert 0 < summary["chrf_pp_mean"] < 100
        assert summary["tsr"] is None

    def test_with_tsr(self, workspace):
        (workspace / "en.txt").write_text(
            "the committee approved the report\nshe walked through the town\n")
        (workspace / "fr.txt").write_text(
            "le comité a approuvé le rapport\nelle a traversé la ville\n")
        result = trc("mt-agree", "--hypothesis", workspace / "en.txt",
                     "--reference", workspace / "en.txt",
                     "--expected-lang", "en",
                     "--profile", f"en={workspace / 'en.txt'}",
                     "--profile", f"fr={workspace / 'fr.txt'}",
                     "--output", workspace / "mt_tsr.json")
        assert result.returncode == 0, result.stderr
        summary = json.loads((workspace / "mt_tsr.json").read_text())
        assert summary["tsr"] == 100.0

    @pytest.mark.parametrize("first, second", [("en", "fr"), ("fr", "en")])
    def test_tsr_does_not_depend_on_the_profile_order(self, tmp_path, first, second):
        (tmp_path / "en.txt").write_text("the committee approved the report\n")
        (tmp_path / "fr.txt").write_text("le comité a approuvé le rapport\n")
        # the blank hypothesis shares no trigram with either profile: a miss
        (tmp_path / "hyp.txt").write_text("the committee approved the report\n\n")
        (tmp_path / "ref.txt").write_text("the committee approved the report\nthe report\n")
        result = trc("mt-agree", "--hypothesis", tmp_path / "hyp.txt",
                     "--reference", tmp_path / "ref.txt", "--expected-lang", "en",
                     "--profile", f"{first}={tmp_path / f'{first}.txt'}",
                     "--profile", f"{second}={tmp_path / f'{second}.txt'}",
                     "--output", tmp_path / "mt.json")
        assert result.returncode == 0, result.stderr
        assert json.loads((tmp_path / "mt.json").read_text())["tsr"] == 50.0

    def test_profile_without_expected_lang_exits_1(self, tmp_path):
        # the profiles serve only TSR; none is read, not even the missing one
        (tmp_path / "en.txt").write_text("the committee approved the report\n")
        result = trc("mt-agree", "--hypothesis", tmp_path / "en.txt",
                     "--reference", tmp_path / "en.txt",
                     "--profile", f"en={tmp_path / 'en.txt'}",
                     "--profile", f"fr={tmp_path / 'missing.txt'}",
                     "--output", tmp_path / "mt.json")
        assert result.returncode == 1
        assert result.stderr == "error: --profile needs --expected-lang\n"
        assert not (tmp_path / "mt.json").exists()

    def test_length_mismatch_exits_1(self, workspace):
        (workspace / "short.txt").write_text("one line\n")
        result = trc("mt-agree", "--hypothesis", workspace / "hyp.txt",
                     "--reference", workspace / "short.txt",
                     "--output", workspace / "bad.json")
        assert result.returncode == 1

    def test_only_a_line_end_splits_a_line(self, tmp_path):
        # U+0085 inside a hypothesis leaves it one line against a two-line reference
        (tmp_path / "hyp.txt").write_text("le chat\x85noir\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("le chat\nnoir\n", encoding="utf-8")
        result = trc("mt-agree", "--hypothesis", tmp_path / "hyp.txt",
                     "--reference", tmp_path / "ref.txt", "--output", tmp_path / "mt.json")
        assert result.returncode == 1
        assert result.stderr == "error: hypothesis has 1 lines, reference 2\n"
        assert not (tmp_path / "mt.json").exists()

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028", "\x1e", "\x0b"],
                             ids=["form-feed", "line-separator", "record-separator", "vt"])
    def test_a_line_with_a_separator_is_one_pair(self, tmp_path, separator):
        hyp = [f"the committee{separator}approved it", "she walked home"]
        ref = ["the committee approved it", "she walked home"]
        (tmp_path / "hyp.txt").write_bytes("\r\n".join(hyp).encode("utf-8"))
        (tmp_path / "ref.txt").write_bytes(("\n".join(ref) + "\n").encode("utf-8"))
        result = trc("mt-agree", "--hypothesis", tmp_path / "hyp.txt",
                     "--reference", tmp_path / "ref.txt", "--output", tmp_path / "mt.json")
        assert result.returncode == 0, result.stderr
        summary = json.loads((tmp_path / "mt.json").read_text())
        chrf = [chrf_pp(h, r) for h, r in zip(hyp, ref)]
        assert summary["chrf_pp_mean"] == round(sum(chrf) / 2, 2)

    @pytest.mark.parametrize("blank", ["", " \t"], ids=["empty", "whitespace"])
    def test_a_blank_line_pair_exits_1_naming_both_lines(self, tmp_path, blank):
        (tmp_path / "hyp.txt").write_text(f"le chat noir\n{blank}\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("le chat noir\n\n", encoding="utf-8")
        result = trc("mt-agree", "--hypothesis", tmp_path / "hyp.txt",
                     "--reference", tmp_path / "ref.txt", "--output", tmp_path / "mt.json")
        assert result.returncode == 1
        assert result.stderr == (f"error: blank line pair at {tmp_path / 'hyp.txt'}:2 "
                                 f"and {tmp_path / 'ref.txt'}:2\n")
        assert not (tmp_path / "mt.json").exists()

    def test_two_empty_files_exit_1(self, tmp_path):
        (tmp_path / "hyp.txt").write_text("")
        (tmp_path / "ref.txt").write_text("")
        result = trc("mt-agree", "--hypothesis", tmp_path / "hyp.txt",
                     "--reference", tmp_path / "ref.txt", "--output", tmp_path / "mt.json")
        assert result.returncode == 1
        assert result.stderr == "error: empty input files\n"
        assert not (tmp_path / "mt.json").exists()

    def test_a_blank_hypothesis_scores_0(self, tmp_path):
        (tmp_path / "hyp.txt").write_text("\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("le chat noir\n", encoding="utf-8")
        result = trc("mt-agree", "--hypothesis", tmp_path / "hyp.txt",
                     "--reference", tmp_path / "ref.txt", "--output", tmp_path / "mt.json")
        assert result.returncode == 0, result.stderr
        summary = json.loads((tmp_path / "mt.json").read_text())
        assert summary["chrf_pp_mean"] == 0 and summary["bleu_n_mean"] == 0

    # Each refusal's message is the one `trc` gave when it scored every pair first.
    REFUSALS = {
        "malformed-profile": (["en"], "--profile must be LANG=CORPUS, got 'en'"),
        "no-expected-profile": (["fr=fr.txt", "ro=ro.txt"],
                                "no profile for expected language 'en'"),
        "one-language": (["en=en.txt"], "need at least one alternative language profile"),
        "empty-corpus": (["en=en.txt", "fr=empty.txt"], "no trigrams in corpus for 'fr'"),
    }

    @pytest.mark.parametrize("refusal", REFUSALS)
    def test_a_profile_problem_is_refused_before_any_pair_is_scored(
            self, tmp_path, monkeypatch, capsys, refusal):
        specs, message = self.REFUSALS[refusal]
        for name, text in [("hyp.txt", "the committee approved the report\nshe walked\n"),
                           ("ref.txt", "the committee approved a report\nshe walked home\n"),
                           ("en.txt", "she walked through the town\n"),
                           ("fr.txt", "elle a traverse la ville\n"),
                           ("ro.txt", "ea a traversat orasul\n"), ("empty.txt", "")]:
            (tmp_path / name).write_text(text, encoding="utf-8")
        scored, chrf_pp = [], translation.chrf_pp

        def counted(hyp, ref):
            scored.append(hyp)
            return chrf_pp(hyp, ref)

        monkeypatch.setattr(translation, "chrf_pp", counted)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", [
            "trc", "mt-agree", "--hypothesis", "hyp.txt", "--reference", "ref.txt",
            "--expected-lang", "en", *[a for spec in specs for a in ("--profile", spec)],
            "--output", "mt.json"])
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        assert exit_info.value.code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert scored == []
        assert not (tmp_path / "mt.json").exists()

    @pytest.mark.parametrize("specs, message", [
        (["en=en.txt", "fr=fr.txt"], "no profile for expected language 'de'"),
        ([], "no profile for expected language 'de'"),
        (["de=en.txt"], "need at least one alternative language profile"),
    ], ids=["other-languages", "no-profile", "one-language"])
    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
    def test_the_profile_languages_are_checked_before_any_file_is_read(
            self, tmp_path, monkeypatch, capsys, specs, message, encoding):
        (tmp_path / "hyp.txt").write_bytes("le café noir\n".encode(encoding))
        (tmp_path / "ref.txt").write_text("le chat noir\n", encoding="utf-8")
        (tmp_path / "en.txt").write_text("she walked through the town\n", encoding="utf-8")
        (tmp_path / "fr.txt").write_text("elle a traverse la ville\n", encoding="utf-8")
        profiled, from_corpus = [], translation.LanguageProfile.from_corpus

        def counted(language, texts):
            profiled.append(language)
            return from_corpus(language, texts)

        monkeypatch.setattr(translation.LanguageProfile, "from_corpus", counted)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", [
            "trc", "mt-agree", "--hypothesis", "hyp.txt", "--reference", "ref.txt",
            "--expected-lang", "de", *[a for spec in specs for a in ("--profile", spec)],
            "--output", "mt.json"])
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        assert exit_info.value.code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert profiled == []

    def test_every_profile_spec_is_checked_before_any_file_is_read(self, tmp_path):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("le café noir\n".encode("latin-1"))
        result = trc("mt-agree", "--hypothesis", latin1, "--reference", latin1,
                     "--expected-lang", "fr", "--profile", f"fr={tmp_path / 'missing.txt'}",
                     "--profile", "en", "--output", tmp_path / "mt.json")
        assert result.returncode == 1
        assert result.stderr == "error: --profile must be LANG=CORPUS, got 'en'\n"

    @pytest.mark.parametrize("latin1", ["hypothesis", "reference", "profile"])
    def test_non_utf8_input_is_named(self, tmp_path, latin1):
        files = {name: tmp_path / f"{name}.txt" for name in ("hypothesis", "reference", "profile")}
        for name, path in files.items():
            path.write_bytes("le café noir\n".encode("latin-1" if name == latin1 else "utf-8"))
        (tmp_path / "en.txt").write_text("the black cat\n", encoding="utf-8")
        result = trc("mt-agree", "--hypothesis", files["hypothesis"],
                     "--reference", files["reference"], "--expected-lang", "fr",
                     "--profile", f"fr={files['profile']}",
                     "--profile", f"en={tmp_path / 'en.txt'}", "--output", tmp_path / "mt.json")
        assert result.returncode == 1
        assert result.stderr == (f"error: {files[latin1]}: 'utf-8' codec can't decode byte "
                                 "0xe9 in position 6: invalid continuation byte\n")
        assert not (tmp_path / "mt.json").exists()


class TestSubsample:
    def test_subsample(self, workspace):
        result = trc("subsample", "--dataset", workspace / "data.jsonl",
                     "--n", 5, "--seed", 2, "--output", workspace / "sub.jsonl")
        assert result.returncode == 0, result.stderr
        rows = list(read_jsonl(workspace / "sub.jsonl"))
        assert len(rows) == 5
        # order-preserving: ids appear in dataset order
        dataset_ids = [r["id"] for r in read_jsonl(workspace / "data.jsonl")]
        positions = [dataset_ids.index(r["id"]) for r in rows]
        assert positions == sorted(positions)

    def test_negative_n_exits_1(self, workspace):
        result = trc("subsample", "--dataset", workspace / "data.jsonl",
                     "--n", -1, "--output", workspace / "sub_negative.jsonl")
        assert result.returncode == 1
        assert result.stderr == "error: n must be non-negative\n"
        assert not (workspace / "sub_negative.jsonl").exists()

    def test_n_above_the_dataset_size_exits_1(self, workspace):
        size = len(list(read_jsonl(workspace / "data.jsonl")))
        result = trc("subsample", "--dataset", workspace / "data.jsonl",
                     "--n", size + 1, "--output", workspace / "sub_large.jsonl")
        assert result.returncode == 1
        assert result.stderr == f"error: asked for {size + 1} of {size} instances\n"
        assert not (workspace / "sub_large.jsonl").exists()


class TestRowChecks:
    """Every row a command reads is checked; a bad one is one `error:` line."""

    def test_build_skips_a_row_that_is_not_an_object(self, workspace):
        source = workspace / "source_array.jsonl"
        write_jsonl(source, list(read_jsonl(workspace / "source.jsonl"))[:3] + [[1, 2]])
        result = trc("build", source, "--output", workspace / "data_array.jsonl")
        assert result.returncode == 0, result.stderr
        assert list(read_jsonl(workspace / "data_array.jsonl.skips.jsonl"))[-1] == \
            {"id": "", "reason": "MalformedRecord: row is array, expected object"}

    @pytest.mark.parametrize("command, field, value, got", [
        (("export-sft",), "answer", 5, "number"),
        (("prompt", "--style", "semantic-icl"), "query_absolute", None, "null"),
        (("prompt",), "language", ["en"], "array"),
    ])
    def test_wrong_typed_dataset_field_exits_1(self, workspace, command, field, value, got):
        rows = list(read_jsonl(workspace / "data.jsonl"))
        rows[2][field] = value
        dataset = workspace / f"data_{field}.jsonl"
        write_jsonl(dataset, rows)
        result = trc(*command, "--dataset", dataset, "--output", workspace / "out.jsonl")
        assert result.returncode == 1
        assert result.stderr == f"error: {dataset}:3: field {field!r} is {got}, expected string\n"

    def test_wrong_typed_prompt_sends_nothing(self, workspace):
        endpoint = MockEndpoint()
        try:
            prompts = workspace / "prompts_bad.jsonl"
            write_jsonl(prompts, [{"instance_id": "i0", "reference_kind": "absolute",
                                   "prompt": 7}])
            result = trc("collect", "--prompts", prompts, "--endpoint", endpoint.url,
                         "--model", "demo", "--output", workspace / "collected_bad.jsonl",
                         "--cache-dir", workspace / "cache_bad")
            assert result.returncode == 1
            assert result.stderr == f"error: {prompts}:1: field 'prompt' is number, expected string\n"
            assert endpoint.requests == 0
        finally:
            endpoint.close()

    def test_wrong_typed_report_field_exits_1(self, scored):
        report = json.loads((scored / "eval.json").read_text())
        report["em_ctr"] = "50"
        (scored / "eval_string.json").write_text(json.dumps(report))
        result = trc("report", "--report", scored / "eval_string.json",
                     "--dataset", scored / "data.jsonl", "--output", scored / "string")
        assert result.returncode == 1
        assert result.stderr == \
            f"error: {scored / 'eval_string.json'}: field 'em_ctr' is string, expected number\n"

    def test_bad_baseline_report_is_named(self, scored):
        report = json.loads((scored / "eval.json").read_text())
        del report["trc"]
        (scored / "eval_baseline.json").write_text(json.dumps(report))
        result = trc("report", "--report", scored / "eval.json", "--dataset", scored / "data.jsonl",
                     "--compare", scored / "eval_baseline.json", "--output", scored / "baseline")
        assert result.returncode == 1
        assert result.stderr == f"error: {scored / 'eval_baseline.json'}: field 'trc' is missing\n"
        assert not (scored / "baseline.json").exists()

    def test_broken_json_line_is_named(self, workspace):
        source = workspace / "source_broken.jsonl"
        source.write_text('{"id": "a"}\n{"id": \n')
        result = trc("build", source, "--output", workspace / "data_broken.jsonl")
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {source}:2: ")
        assert len(result.stderr.splitlines()) == 1

    def test_non_json_constant_in_a_row_is_named(self, workspace):
        rows = list(read_jsonl(workspace / "source.jsonl"))[:3]
        rows[1]["id"] = math.nan
        source = workspace / "source_nan.jsonl"
        source.write_text("".join(json.dumps(row) + "\n" for row in rows))  # NaN, not JSON
        result = trc("build", source, "--output", workspace / "data_nan.jsonl")
        assert result.returncode == 1
        assert result.stderr == f"error: {source}:2: NaN is not a JSON value\n"
        assert not (workspace / "data_nan.jsonl").exists()

    @pytest.mark.parametrize("changes, refused", [
        ({"trc": math.nan, "per_entity": [math.inf, 50.0, 30]}, "NaN is not a JSON value"),
        ({"per_entity": [math.inf, 50.0, 30]}, "Infinity is not a JSON value"),
        ({"em_ctr": -math.inf}, "-Infinity is not a JSON value"),
        # a number string here is written unquoted: 1e400, which reads as inf
        ({"em_ctr": "1e400", "per_entity": [40.0, "1e999", 30]}, "number 1e400 is out of range"),
        ({"per_entity": [40.0, "-1e999", 30]}, "number -1e999 is out of range"),
    ], ids=["nan-and-inf", "inf", "minus-inf", "overflow", "overflow-in-breakdown"])
    def test_non_json_constant_in_report_is_named(self, scored, changes, refused):
        report = json.loads((scored / "eval.json").read_text())
        for field, value in changes.items():
            if field == "per_entity":
                report[field][next(iter(report[field]))] = value
            else:
                report[field] = value
        path = scored / "eval_constant.json"
        path.write_text(re.sub(r'"(-?1e\d+)"', r"\1", json.dumps(report)))
        result = trc("report", "--report", path, "--dataset", scored / "data.jsonl",
                     "--output", scored / "constant")
        assert result.returncode == 1
        assert result.stderr == f"error: {path}: {refused}\n"
        assert not (scored / "constant.json").exists()

    def test_invalid_utf8_line_is_named(self, workspace):
        source = workspace / "source_latin1.jsonl"
        source.write_bytes('{"id": "café"}\n'.encode("latin-1"))
        result = trc("build", source, "--output", workspace / "data_latin1.jsonl")
        assert result.returncode == 1
        assert result.stderr.startswith(
            f"error: {source}:1: 'utf-8' codec can't decode byte 0xe9 in position 11")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("field, value, shown", [
        ("per_entity", [1], "[1]"),
        ("per_entity", "abc", '"abc"'),
        ("per_language", [50.0, 25.0, 2.5], "[50.0, 25.0, 2.5]"),
        ("per_language", [50.0, None, 2], "[50.0, null, 2]"),
    ], ids=["short", "string", "float-count", "null"])
    def test_bad_breakdown_value_is_named(self, scored, field, value, shown):
        report = json.loads((scored / "eval.json").read_text())
        name = next(iter(report[field]))
        report[field][name] = value
        path = scored / "eval_breakdown.json"
        path.write_text(json.dumps(report))
        result = trc("report", "--report", path, "--dataset", scored / "data.jsonl",
                     "--output", scored / "breakdown")
        assert result.returncode == 1
        assert result.stderr == (f"error: {path}: field {field!r} at {name!r} is {shown}, "
                                 "expected [number, number, integer]\n")

    def test_unknown_reference_kind_exits_1(self, scored):
        responses = list(read_jsonl(scored / "responses.jsonl"))
        responses[1]["reference_kind"] = "Absolute"
        write_jsonl(scored / "responses_kind.jsonl", responses)
        result = trc("evaluate", "--dataset", scored / "data.jsonl",
                     "--responses", scored / "responses_kind.jsonl",
                     "--output", scored / "eval_kind.json")
        assert result.returncode == 1
        assert result.stderr == (f"error: {scored / 'responses_kind.jsonl'}:2: "
                                 f"unknown reference kind 'Absolute'\n")
        assert not (scored / "eval_kind.json").exists()


def _golden_responses(instances):
    """Both arms per instance, mixing right, wrong and formatting-variant answers."""
    responses = []
    for k, inst in enumerate(instances):
        gold = inst["answer"]
        arms = {
            "absolute": [gold, "The " + gold.upper(), "nobody", gold.split()[0]][k % 4],
            "chronological": [gold, "The " + gold.upper(), "nobody"][k % 3],
        }
        for kind, answer in arms.items():
            responses.append({"instance_id": inst["id"], "reference_kind": kind,
                              "answer": answer, "raw_completion": answer})
    return responses


# sha256 of each output, and of each manifest without `timestamp` and
# `output_paths`, for the command sequence in test_golden_digests.
GOLDEN_DIGESTS = {
    "data.jsonl":
        "5f579f120e371ccc4f456b8c4c788b4a6733d0e67f1c596bac85b7716b4126c1",
    "data.jsonl.manifest.json":
        "5f7d5fdc9ba069170996813f58603b4d253005cae15e3947f0558f8d590b2212",
    "data.jsonl.skips.jsonl":
        "25a95099888f7c5674ec25730d23f3eb1fbb0a7e09fdb85e8f9f3ae6a275de11",
    "eval.json":
        "228c470fc7252def122bd663ecd23b24190fb21fb2f2bead148375a06e4a43c3",
    "eval.json.manifest.json":
        "6af24d6c855049bebe97680b7ecb2188544ef8ca5e7fc991a36d3a39c35ffa3f",
    "eval_reversed.json":
        "ffc7b88690aceba5715f24a5da6d9fa90dec9a0db0737fa65b04fe6f3e729093",
    "eval_reversed.json.manifest.json":
        "cc893880328783dcb6c3ecdc2f4e24f7f6bdff8fb1fef4f7e5e9a3c8708a4047",
    "final.json":
        "104a05745bbeb4a6256b5765a1ba041068c361ffa9665a7e8073912273ac5059",
    "final.json.manifest.json":
        "8626564d17910ad7d5717afc1a698aa2f24a4b29cfd493399ef54d8e85d4dbd2",
    "final.txt":
        "10d67433102903c6ac55a26eee5af79f12c7bf68ea2d574a4207325793e484e2",
    "final_cmp.json":
        "29561860c81b7ea920205072e0a6ed7262edeebd0a0c7863085c012f4e69171e",
    "final_cmp.json.manifest.json":
        "6151dc9ad3a68ce4d1731a4b4fc80f0eb6e4518c1bdc481940088381d71e4bc3",
    "final_cmp.txt":
        "734fd683618e201c6f096989031f38ec17c3bd23909f2a7578734e71aa70105d",
    "icl-absolute.jsonl":
        "0303fcddeaecf18ac27698c3db7cc0f52e1f9f8e0d409cc81540b164001885f1",
    "icl-absolute.jsonl.manifest.json":
        "5426db3637eeca5b620a4ed33b430fb28bbfd2676ea7a51823f2c661eea5d6b3",
    "icl-chronological.jsonl":
        "1123e74ad176d74e08e5927a8d2468fd0964d8e246c056f82de23dfe800bfcf8",
    "icl-chronological.jsonl.manifest.json":
        "11c0818c02d56bd340fa19aa9c207b2ff4ec645710a306c6dccf55877b0a7f44",
    "mt.json":
        "64ec7af9334ecfc7fd90130e859f6ba8b6ee2e689900f2ec4ae4dc6f0ce7911b",
    "mt.json.manifest.json":
        "47c4fb5fc9668682e1e8d118498704cdcbd806eec55302dba2c6e8e81b00faea",
    "pool-icl.jsonl":
        "10cb9a6f0fc82954ec21c98591cb9e28be99c4f5303ab23c054131b6d825f916",
    "pool-icl.jsonl.manifest.json":
        "8b1666aa06ffd397b0c61d37a105c38e9a9974427ec3bfe5327078f8223b3478",
    "pool-semantic-icl.jsonl":
        "7de3a23cb587956d9d8fb0b4c838f8cd60827fd2426d688a54080b5c6660e44a",
    "pool-semantic-icl.jsonl.manifest.json":
        "1ee13db2bd5bdacf65bc1d7f66dd1478afcb44095be02aaad3abfdd99a12a9da",
    "pairs.jsonl":
        "7af09a4e06116a8d1d4cb80cc22235fdfe3328a68ba69dcf39d9d9c2d9ed2583",
    "pairs.jsonl.manifest.json":
        "dea273af61f28fb1eb05093baaed1e03fc5d3e691f88835f5e9eaa73ad93e2f1",
    "semantic-cot-absolute.jsonl":
        "c19f0fcb921abf0b6d18e88b9ca0ba8fd85fc3eb7538e4f9c995d21fd6291e5e",
    "semantic-cot-absolute.jsonl.manifest.json":
        "94cf6e08413cefee0cbe9d93827d02053c6e437af11542c5d09916110613912c",
    "semantic-cot-chronological.jsonl":
        "4d94c2ab0bcd1089ef75146ee7593d2b76d90efea29a3ccd446183f566045eb5",
    "semantic-cot-chronological.jsonl.manifest.json":
        "3a6c5b87f83b8f3deb570d79eebc70a8dbe467e274c98eee69d69a2a176f968a",
    "sft.jsonl":
        "a65953287e615de0715d797ce0e28797b5a34869e09707a5e834159acd0aa5ae",
    "sft.jsonl.manifest.json":
        "eb1745edc373e8b89a8753bfe109ffe4fe441977961db72e64163ea93e64b347",
    "sub.jsonl":
        "da2937457c9663b685d237ba51e8c16452acf8031180b95708a24ac169458d78",
    "sub.jsonl.manifest.json":
        "3e6d9096e3e8a02aad4eac40dc27a68fe9001762adb7d3b1270dfb6eed440365",
}


def _manifest_digest(path):
    manifest = json.loads(Path(path).read_text())
    assert list(manifest) == ["command", "config_digest", "input_digests", "output_paths",
                              "seed", "toolkit_version", "timestamp"]
    del manifest["timestamp"], manifest["output_paths"]
    return hashlib.sha256(json.dumps(manifest).encode("utf-8")).hexdigest()


def test_golden_digests(tmp_path):
    """Every command's outputs and manifests stay byte-identical run to run."""
    write_jsonl(tmp_path / "source.jsonl", make_records(make_timelines(15, seed=21)))
    data = tmp_path / "data.jsonl"
    (tmp_path / "hyp.txt").write_text("the committee approved the report\nle chien bleu\n")
    (tmp_path / "ref.txt").write_text("the committee approved a report\nle chien vert\n")
    (tmp_path / "en.txt").write_text(
        "the committee approved the report\nshe walked through the town\n")
    (tmp_path / "fr.txt").write_text(
        "le comité a approuvé le rapport\nelle a traversé la ville\n")
    def run(*command):
        result = trc(*command)
        assert result.returncode == 0, (command[0], result.stderr)

    run("build", tmp_path / "source.jsonl", "--output", data)
    run("pairs", "--dataset", data, "--n", 6, "--seed", 3, "--output", tmp_path / "pairs.jsonl")
    run("subsample", "--dataset", data, "--n", 7, "--seed", 2, "--output", tmp_path / "sub.jsonl")
    run("export-sft", "--dataset", data, "--pairing", "cross", "--output", tmp_path / "sft.jsonl")
    for style in ("icl", "semantic-cot"):
        for reference in ("absolute", "chronological"):
            run("prompt", "--dataset", data, "--style", style, "--shots", 2,
                "--reference", reference, "--seed", 1,
                "--output", tmp_path / f"{style}-{reference}.jsonl")
    # A separate pool: the dataset, a `fr` copy of some instances (same ids)
    # and one duplicated row; the targets mix both languages.
    rows = list(read_jsonl(data))
    french = [dict(row, language="fr") for row in rows[:6]]
    write_jsonl(tmp_path / "pool.jsonl", rows + french + [rows[2]])
    write_jsonl(tmp_path / "mixed.jsonl", rows[:4] + french[:4])
    for style in ("icl", "semantic-icl"):
        run("prompt", "--dataset", tmp_path / "mixed.jsonl", "--pool", tmp_path / "pool.jsonl",
            "--style", style, "--shots", 3, "--reference", "absolute", "--seed", 4,
            "--output", tmp_path / f"pool-{style}.jsonl")
    responses = tmp_path / "responses.jsonl"
    write_jsonl(responses, _golden_responses(rows))
    # the --compare baseline: other answers, dealt out over the rows in reverse
    reversed_responses = tmp_path / "responses_reversed.jsonl"
    write_jsonl(reversed_responses, _golden_responses(rows[::-1]))
    run("evaluate", "--dataset", data, "--responses", responses,
        "--output", tmp_path / "eval.json")
    run("evaluate", "--dataset", data, "--responses", reversed_responses,
        "--output", tmp_path / "eval_reversed.json")
    run("report", "--report", tmp_path / "eval.json", "--dataset", data,
        "--output", tmp_path / "final")
    run("report", "--report", tmp_path / "eval.json", "--dataset", data,
        "--compare", tmp_path / "eval_reversed.json", "--output", tmp_path / "final_cmp")
    run("mt-agree", "--hypothesis", tmp_path / "hyp.txt", "--reference", tmp_path / "ref.txt",
        "--expected-lang", "en", "--profile", f"en={tmp_path / 'en.txt'}",
        "--profile", f"fr={tmp_path / 'fr.txt'}", "--output", tmp_path / "mt.json")

    inputs = {"source.jsonl", "responses.jsonl", "responses_reversed.jsonl", "hyp.txt",
              "ref.txt", "en.txt", "fr.txt", "pool.jsonl", "mixed.jsonl"}
    observed = {}
    for path in sorted(tmp_path.iterdir()):
        if path.name in inputs:
            continue
        if path.name.endswith(".manifest.json"):
            observed[path.name] = _manifest_digest(path)
        else:
            observed[path.name] = digest(path)
    assert observed == GOLDEN_DIGESTS


def _declared_options() -> set[tuple[str, str]]:
    """(command, --option) for every option each `trc` command declares."""
    return {(name, opt) for name, command in cli.main.commands.items()
            for param in command.params for opt in param.opts if opt.startswith("--")}


@pytest.mark.parametrize("command, option", [
    ("evaluate", "--strict"), ("export-sft", "--instruction"),
    ("mt-agree", "--max-order"), ("prompt", "--preview")])
def test_deleted_setting_is_not_declared(command, option):
    assert command in cli.main.commands
    assert (command, option) not in _declared_options()


def test_each_choice_option_takes_one_library_vocabulary():
    """An option's words are the library's own, so nothing maps one word to another."""
    vocabularies = {prompting.STYLE_KINDS, querygen.REFERENCE_KINDS, prompting.PAIRINGS}
    choices = {(name, param.name): tuple(param.type.choices)
               for name, command in cli.main.commands.items() for param in command.params
               if isinstance(param.type, click.Choice)}
    assert set(choices) == {("prompt", "style"), ("prompt", "reference"),
                            ("export-sft", "pairing")}
    assert {key: words for key, words in choices.items() if words not in vocabularies} == {}


def test_every_option_is_documented_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    undocumented = sorted((name, opt) for name, opt in _declared_options()
                          if not re.search(re.escape(opt) + r"(?![\w-])", readme))
    assert not undocumented


# Runs every command in one fresh interpreter, in-process, and prints the
# network modules loaded after the commands that send nothing and again after
# a collect with one cache miss.
_SEND_NOTHING_SCRIPT = r"""
import contextlib, io, json, sys
from synthkb import make_records, make_timelines
from trc_toolkit import cli, client
from trc_toolkit.manifest import read_jsonl, write_jsonl
from trc_toolkit.translation import chrf_pp

endpoint, network = sys.argv[1], json.loads(sys.argv[2])

def run(*argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(list(argv), standalone_mode=False)
    except SystemExit as exc:
        return argv[0], exc.code
    return argv[0], 0

def loaded():
    return [name for name in network if name in sys.modules]

write_jsonl("source.jsonl", make_records(make_timelines(6, seed=5)))
for name, text in [("hyp.txt", "the committee approved the report\n"),
                   ("ref.txt", "the committee approved a report\n"),
                   ("en.txt", "she walked through the town\n"),
                   ("fr.txt", "elle a traverse la ville\n")]:
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text)
codes = [run("build", "source.jsonl", "--output", "data.jsonl"),
         run("pairs", "--dataset", "data.jsonl", "--n", "2", "--output", "pairs.jsonl"),
         run("subsample", "--dataset", "data.jsonl", "--n", "3", "--output", "sub.jsonl"),
         run("export-sft", "--dataset", "data.jsonl", "--output", "sft.jsonl"),
         run("prompt", "--dataset", "data.jsonl", "--style", "semantic-cot",
             "--reference", "absolute", "--output", "p_absolute.jsonl"),
         run("prompt", "--dataset", "data.jsonl", "--reference", "chronological",
             "--output", "p_chronological.jsonl")]
rows = [row for ref in ("absolute", "chronological") for row in read_jsonl(f"p_{ref}.jsonl")]
write_jsonl("prompts.jsonl", rows)
with client.ResponseCache("cache") as cache:
    for row in rows:
        key = client.prompt_hash("m", row["prompt"])
        cache.put(key, {"prompt_hash": key, "raw_completion": "x", "latency": 0.0})
collect = ["collect", "--endpoint", endpoint, "--model", "m", "--cache-dir", "cache"]
codes += [run(*collect, "--prompts", "prompts.jsonl", "--output", "responses.jsonl"),
          run("evaluate", "--dataset", "data.jsonl", "--responses", "responses.jsonl",
              "--output", "eval.json"),
          run("report", "--report", "eval.json", "--dataset", "data.jsonl",
              "--output", "final"),
          run("mt-agree", "--hypothesis", "hyp.txt", "--reference", "ref.txt",
              "--expected-lang", "en", "--profile", "en=en.txt", "--profile", "fr=fr.txt",
              "--output", "mt.json")]
print(json.dumps({"codes": codes, "loaded": loaded()}))
write_jsonl("miss.jsonl", [dict(rows[0], prompt=rows[0]["prompt"] + " Again?")])
code = run(*collect, "--prompts", "miss.jsonl", "--output", "miss_responses.jsonl")
print(json.dumps({"codes": [code], "loaded": loaded()}))
"""


def test_commands_that_send_nothing_load_no_network_module(tmp_path):
    endpoint = MockEndpoint()
    try:
        env = dict(_TRC_ENV, PYTHONPATH=os.pathsep.join(
            [_TRC_ENV["PYTHONPATH"], str(Path(__file__).resolve().parent)]))
        result = subprocess.run(
            [sys.executable, "-c", _SEND_NOTHING_SCRIPT, endpoint.url + "/v1",
             json.dumps(NETWORK_MODULES)],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    finally:
        endpoint.close()
    assert result.returncode == 0, result.stderr
    offline, sending = map(json.loads, result.stdout.splitlines())
    assert [name for name, _ in offline["codes"]] == [
        "build", "pairs", "subsample", "export-sft", "prompt", "prompt",
        "collect", "evaluate", "report", "mt-agree"]
    assert all(code == 0 for _, code in offline["codes"]), offline["codes"]
    assert offline["loaded"] == []
    assert endpoint.requests == 1   # only the miss was sent
    assert sending == {"codes": [["collect", 0]], "loaded": NETWORK_MODULES}
