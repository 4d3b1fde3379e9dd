import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trc_toolkit
from trc_toolkit.manifest import read_jsonl, write_jsonl

from synthkb import make_records, make_timelines
from test_client import MockEndpoint

# The `trc` child process imports the same package as the tests, installed or not.
_PACKAGE_ROOT = str(Path(trc_toolkit.__file__).resolve().parents[1])
_TRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))


def trc(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "trc_toolkit.cli", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=_TRC_ENV)


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
        assert all(r["pairing"] == "unilateral_absolute" for r in rows)


class TestPrompt:
    def test_semantic_cot_prompts(self, workspace):
        result = trc("prompt", "--dataset", workspace / "data.jsonl",
                     "--style", "semantic-cot", "--shots", 2,
                     "--reference", "chronological", "--seed", 1,
                     "--output", workspace / "prompts.jsonl",
                     "--preview", workspace / "preview.txt")
        assert result.returncode == 0, result.stderr
        rows = list(read_jsonl(workspace / "prompts.jsonl"))
        assert rows and all("because" in r["prompt"] for r in rows)
        assert (workspace / "preview.txt").read_text().startswith("Question:")

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

    def test_length_mismatch_exits_1(self, workspace):
        (workspace / "short.txt").write_text("one line\n")
        result = trc("mt-agree", "--hypothesis", workspace / "hyp.txt",
                     "--reference", workspace / "short.txt",
                     "--output", workspace / "bad.json")
        assert result.returncode == 1


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
        "1b926099e9ace04116aa5ade1e3e4d4512754d861f71b10bcfbc786a681a55df",
    "eval_strict.json":
        "1911cd692361835dd2e93d94ca4712b223cc0a0db6ed3669cc8c76d021e5bc89",
    "eval_strict.json.manifest.json":
        "b7455e46c5406d8c7be9aae11f4270b7c271e2b9e8a7f70b68b7e06802413319",
    "final.json":
        "104a05745bbeb4a6256b5765a1ba041068c361ffa9665a7e8073912273ac5059",
    "final.json.manifest.json":
        "8626564d17910ad7d5717afc1a698aa2f24a4b29cfd493399ef54d8e85d4dbd2",
    "final.txt":
        "10d67433102903c6ac55a26eee5af79f12c7bf68ea2d574a4207325793e484e2",
    "final_cmp.json":
        "00df7a227e0cb1170ee085b8242fb31c9cd489a9c415d66d2094adee3d4c408e",
    "final_cmp.json.manifest.json":
        "c319af6afd3bcb3e48259341d1e71b94b1dbb18235f50f10edc51a0d5b2b9ecb",
    "final_cmp.txt":
        "ee0fde09ac4a7a450e22e68417601adbb77b74dd7c2fff85570167e49b521c60",
    "icl-absolute.jsonl":
        "0303fcddeaecf18ac27698c3db7cc0f52e1f9f8e0d409cc81540b164001885f1",
    "icl-absolute.jsonl.manifest.json":
        "5426db3637eeca5b620a4ed33b430fb28bbfd2676ea7a51823f2c661eea5d6b3",
    "icl-absolute.txt":
        "9b135e8815b5ca2c5a6e152ffd22014639c3cbeff2730161533ea713bc8eda5f",
    "icl-chronological.jsonl":
        "1123e74ad176d74e08e5927a8d2468fd0964d8e246c056f82de23dfe800bfcf8",
    "icl-chronological.jsonl.manifest.json":
        "11c0818c02d56bd340fa19aa9c207b2ff4ec645710a306c6dccf55877b0a7f44",
    "icl-chronological.txt":
        "96b86698d077954f95ab03e775ce7f9a73122e4979c83f7bf6a12e9912cf5209",
    "mt.json":
        "64ec7af9334ecfc7fd90130e859f6ba8b6ee2e689900f2ec4ae4dc6f0ce7911b",
    "mt.json.manifest.json":
        "dab3173a7e3d23e73847d596d4b804dbb760846a1342afc557762e3f47d69467",
    "pool-icl.jsonl":
        "10cb9a6f0fc82954ec21c98591cb9e28be99c4f5303ab23c054131b6d825f916",
    "pool-icl.jsonl.manifest.json":
        "8b1666aa06ffd397b0c61d37a105c38e9a9974427ec3bfe5327078f8223b3478",
    "pool-semantic-icl.jsonl":
        "7de3a23cb587956d9d8fb0b4c838f8cd60827fd2426d688a54080b5c6660e44a",
    "pool-semantic-icl.jsonl.manifest.json":
        "29319017fd4d9912da1e10c74d40f6fd0de5ebb8409366e0b524c521eed2d6d4",
    "pairs.jsonl":
        "7af09a4e06116a8d1d4cb80cc22235fdfe3328a68ba69dcf39d9d9c2d9ed2583",
    "pairs.jsonl.manifest.json":
        "dea273af61f28fb1eb05093baaed1e03fc5d3e691f88835f5e9eaa73ad93e2f1",
    "semantic-cot-absolute.jsonl":
        "c19f0fcb921abf0b6d18e88b9ca0ba8fd85fc3eb7538e4f9c995d21fd6291e5e",
    "semantic-cot-absolute.jsonl.manifest.json":
        "526ac5b0a5ccae0567756779949ee00add9fc6fcf74ec47ead8da06dd50acb99",
    "semantic-cot-absolute.txt":
        "3e8950c1b876e1ff40ac08604cefef28fbf1e2b987a2cc29fde606a3d0912cdd",
    "semantic-cot-chronological.jsonl":
        "4d94c2ab0bcd1089ef75146ee7593d2b76d90efea29a3ccd446183f566045eb5",
    "semantic-cot-chronological.jsonl.manifest.json":
        "7bd87deb02cb22f83ef5ba34dcd013cf4d1372cd29a0aa154a361a79abbd6421",
    "semantic-cot-chronological.txt":
        "2275e8baa21c03309c9ff92fc4c4d513af921f1bee24dc11867ec86eafc36ea6",
    "sft.jsonl":
        "a65953287e615de0715d797ce0e28797b5a34869e09707a5e834159acd0aa5ae",
    "sft.jsonl.manifest.json":
        "486382d7b53363370d4505068b3ef6e8e9905ed2639590e0ff3f0c6454825f7c",
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
                "--output", tmp_path / f"{style}-{reference}.jsonl",
                "--preview", tmp_path / f"{style}-{reference}.txt")
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
    write_jsonl(responses, _golden_responses(list(read_jsonl(data))))
    run("evaluate", "--dataset", data, "--responses", responses,
        "--output", tmp_path / "eval.json")
    run("evaluate", "--dataset", data, "--responses", responses,
        "--output", tmp_path / "eval_strict.json", "--strict")
    run("report", "--report", tmp_path / "eval.json", "--dataset", data,
        "--output", tmp_path / "final")
    run("report", "--report", tmp_path / "eval.json", "--dataset", data,
        "--compare", tmp_path / "eval_strict.json", "--output", tmp_path / "final_cmp")
    run("mt-agree", "--hypothesis", tmp_path / "hyp.txt", "--reference", tmp_path / "ref.txt",
        "--expected-lang", "en", "--profile", f"en={tmp_path / 'en.txt'}",
        "--profile", f"fr={tmp_path / 'fr.txt'}", "--output", tmp_path / "mt.json")

    inputs = {"source.jsonl", "responses.jsonl", "hyp.txt", "ref.txt", "en.txt", "fr.txt",
              "pool.jsonl", "mixed.jsonl"}
    observed = {}
    for path in sorted(tmp_path.iterdir()):
        if path.name in inputs:
            continue
        if path.name.endswith(".manifest.json"):
            observed[path.name] = _manifest_digest(path)
        else:
            observed[path.name] = digest(path)
    assert observed == GOLDEN_DIGESTS
