import heapq
import math
import random
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import Phase, example, given, settings, strategies as st

from trc_toolkit.cli import main
from trc_toolkit.errors import DuplicateInstanceId, PairingViolation, PoolTooSmall
from trc_toolkit.manifest import read_jsonl, write_jsonl
from trc_toolkit.prompting import (
    DemoPool,
    IdfIndex,
    PromptStyle,
    export_sft,
    render_prompt,
    render_sft_record,
    select_demonstrations,
)
from trc_toolkit.querygen import REFERENCE_KINDS, BenchmarkInstance

from conftest import PELIKAN_PATHWAY_EVENT, PELIKAN_PATHWAY_TIME


@pytest.fixture
def pool(synthetic_dataset):
    return synthetic_dataset[:20]


class TestPromptStyle:
    def test_zero_shot_forces_zero_shots(self):
        assert PromptStyle("zero", 3).shots == 0

    def test_default_shots(self):
        assert PromptStyle("icl").shots == 3

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError):
            PromptStyle("icl", -1)


class TestSelectDemonstrations:
    def test_zero_shots_empty(self, pool):
        style = PromptStyle("zero")
        assert select_demonstrations(pool, "anything", style, seed=0) == []

    def test_verbatim_copy_ranks_first(self, pool):
        style = PromptStyle("semantic-icl", 3)
        query = pool[7].query_chronological
        demos = select_demonstrations(pool, query, style, seed=0)
        assert demos[0].id == pool[7].id

    def test_icl_seeded_sample_is_frozen(self, synthetic_dataset):
        # golden output of the seeded sampler, enumerated once and pinned
        pool = synthetic_dataset[:5]
        style = PromptStyle("icl", 3)
        demos = select_demonstrations(pool, "any query", style, seed=7)
        assert [d.id for d in demos] == [
            "t000-f1-after", "t000-f1-before", "t000-f2-before"]

    @pytest.mark.parametrize("shots", [1, 3, 6])
    def test_icl_matches_seeded_sample_of_the_pool(self, synthetic_dataset, shots):
        # pools of at most 21 take CPython's list branch of `sample`, larger ones its set branch
        for size in range(max(3, shots), 31):
            pool = synthetic_dataset[:size]
            for seed in (0, 7, 12345):
                demos = select_demonstrations(pool, "q", PromptStyle("icl", shots), seed)
                assert demos == random.Random(seed).sample(pool, shots)

    @pytest.mark.parametrize("size", [8, 21, 22, 30])
    def test_icl_on_a_candidates_view(self, synthetic_dataset, size):
        items = synthetic_dataset[:size]
        items = items + [items[2], items[size - 1]]   # two ids appear twice
        for skipped in (items[0].id, items[2].id, items[size - 1].id, "absent"):
            view = DemoPool(items).without(skipped)
            remaining = [inst for inst in items if inst.id != skipped]
            for seed in (3, 99):
                demos = select_demonstrations(view, "q", PromptStyle("icl", 3), seed)
                assert demos == random.Random(seed).sample(remaining, 3)

    def test_pool_too_small(self, pool):
        with pytest.raises(PoolTooSmall):
            select_demonstrations(pool[:2], "q", PromptStyle("icl", 3), seed=0)

    def test_semantic_ties_broken_by_pool_order(self, pool):
        style = PromptStyle("semantic-icl", len(pool))
        demos = select_demonstrations(pool, "xyzzy unrelated gibberish", style, seed=0)
        # all scores zero: selection must fall back to pool order
        assert [d.id for d in demos] == [p.id for p in pool]


# -- oracle: the per-target retrieval `trc prompt` has always meant, kept
# here as a plain loop so that a faster implementation can be held to it.

def _oracle_tokens(text):
    return re.sub(r"[^\w\s]", " ", text.lower()).split()


def _oracle_demos(pool, target, style, shots, reference, seed):
    """Filter the pool, build IDF over the candidates, score them all, sort."""
    candidates = [p for p in pool if p.id != target.id and p.language == target.language]
    if len(candidates) < shots:
        raise PoolTooSmall(f"pool of {len(candidates)} cannot supply {shots} shots")
    if style.kind == "icl":
        return random.Random(seed).sample(candidates, shots)
    texts = [c.query(reference) for c in candidates]
    n = len(texts)
    df = Counter()
    for text in texts:
        df.update(set(_oracle_tokens(text)))
    idf = {t: math.log((1 + n) / (1 + c)) + 1.0 for t, c in df.items()}

    def vector(text):
        return {t: c * idf.get(t, math.log(1 + n) + 1.0)
                for t, c in Counter(_oracle_tokens(text)).items()}

    def cosine(a, b):
        if not a or not b:
            return 0.0
        dot = sum(v * b[t] for t, v in a.items() if t in b)
        na = math.sqrt(sum(v * v for v in a.values()))
        nb = math.sqrt(sum(v * v for v in b.values()))
        return dot / (na * nb) if dot else 0.0

    query = vector(target.query(reference))
    order = sorted(range(n), key=lambda i: (-cosine(query, vector(texts[i])), i))
    return [candidates[i] for i in order[:shots]]


_WORDS = ["which", "did", "work", "for", "before", "after", "alpha", "beta",
          "gamma", "x-ray", "o'neil", "1949", "Café", "delta,"]
_UNKNOWN = ["zzyzx", "qwv", "nowhere?"]


def _instance(ident, language, absolute, chronological, answer):
    return BenchmarkInstance(
        id=ident, language=language, relation="employer", entity_type="organization",
        direction="before", query_absolute=" ".join(absolute),
        query_chronological=" ".join(chronological), answer=answer,
        pathway_time_oriented=f"because {answer} came first",
        pathway_event_oriented=f"because {answer} came before",
        fact_context="")


def _instances(ids, words):
    phrase = st.lists(st.sampled_from(words), max_size=6)
    return st.builds(_instance, st.sampled_from(ids), st.sampled_from(["en", "fr"]),
                     phrase, phrase, st.sampled_from(["Avery", "Blake", "Casey"]))


@st.composite
def _retrieval_cases(draw):
    size = draw(st.integers(1, 30))
    pool = draw(st.lists(_instances(list("abcdefgh"), _WORDS), min_size=size, max_size=size))
    duplicates = draw(st.lists(st.sampled_from(pool), max_size=2))
    pool += duplicates
    absent = draw(st.lists(_instances(["new1", "new2"], _WORDS + _UNKNOWN), max_size=2))
    unknown = draw(st.lists(_instances(list("abz"), _UNKNOWN), max_size=1))
    targets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    targets = draw(st.permutations(targets + absent + unknown))
    return pool, targets


class TestCandidates:
    @pytest.mark.parametrize("duplicated", [True, False])
    def test_view_equals_filtered_list(self, pool, duplicated):
        items = pool[:6] + [pool[1], pool[4]]   # pool[1] and pool[4] appear twice
        skipped = pool[1].id if duplicated else "absent"
        view = DemoPool(items).without(skipped)
        expected = [p for p in items if p.id != skipped]
        assert len(view) == len(expected)
        assert list(view) == expected
        assert [view[i] for i in range(len(view))] == expected
        assert view[-1] == expected[-1]
        with pytest.raises(IndexError):
            view[len(view)]


class TestRetrievalOracle:
    # no shrinking: each step reruns `trc prompt`, so a failure took minutes to report
    @settings(max_examples=150, deadline=None,
              phases=[phase for phase in Phase if phase is not Phase.shrink])
    @given(_retrieval_cases(), st.sampled_from(["icl", "semantic-icl", "semantic-cot"]),
           st.integers(1, 5), st.sampled_from(["absolute", "chronological"]),
           st.integers(0, 3))
    def test_trc_prompt_matches_oracle(self, case, style_flag, shots, reference, seed):
        pool, targets = case
        style = PromptStyle(style_flag, shots)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_jsonl(tmp / "pool.jsonl", (p.to_dict() for p in pool))

            def trc_prompt(targets):
                write_jsonl(tmp / "targets.jsonl", (t.to_dict() for t in targets))
                return CliRunner().invoke(main, [
                    "prompt", "--dataset", str(tmp / "targets.jsonl"),
                    "--pool", str(tmp / "pool.jsonl"), "--style", style_flag,
                    "--shots", str(shots), "--reference", reference, "--seed", str(seed),
                    "--output", str(tmp / "prompts.jsonl")])

            keys = [(t.id, t.language) for t in targets]
            if len(set(keys)) < len(keys):
                # refused before any ranking; the oracle then ranks the first occurrences
                assert isinstance(trc_prompt(targets).exception, DuplicateInstanceId)
                targets = [t for i, t in enumerate(targets) if keys[i] not in keys[:i]]
            expected, error = [], None
            for target in targets:
                try:
                    demos = _oracle_demos(pool, target, style, shots, reference, seed)
                except PoolTooSmall as exc:
                    error = str(exc)
                    break
                query = target.query(reference)
                expected.append(render_prompt(query, demos, style, reference))
            result = trc_prompt(targets)
            if error is not None:
                assert isinstance(result.exception, PoolTooSmall)
                assert str(result.exception) == error
                return
            assert result.exit_code == 0, result.output
            rows = list(read_jsonl(tmp / "prompts.jsonl"))
        assert [r["instance_id"] for r in rows] == [t.id for t in targets]
        assert [r["prompt"] for r in rows] == expected


def _scan_rank(docs, query, k, skip=()):
    """The full scan `IdfIndex.rank` once made: every document scored with the
    IDF over the documents not in `skip`, dot summed in query order, norm in
    document order."""
    kept = [pos for pos in range(len(docs)) if pos not in skip]
    n = len(kept)
    df = Counter()
    for pos in kept:
        df.update(docs[pos].keys())

    def weight(term):
        return math.log((1 + n) / (1 + df[term])) + 1.0

    qvec = {t: c * weight(t) for t, c in Counter(_oracle_tokens(query)).items()}
    na = math.sqrt(sum(v * v for v in qvec.values()))
    scored = []
    for pos in kept:
        doc = docs[pos]
        dot = sum([v * (doc[t] * weight(t)) for t, v in qvec.items() if t in doc])
        if dot:
            nb = math.sqrt(sum([v * v for v in [c * weight(t) for t, c in doc.items()]]))
            scored.append((-(dot / (na * nb)), pos))
        else:
            scored.append((-0.0, pos))
    return [pos for _, pos in heapq.nsmallest(k, scored)]


@st.composite
def _near_tie_cases(draw):
    """Pools of repeated documents: copies, and the same tokens in other orders.

    Long documents over few words repeat tokens (counts of 3 and more), which
    makes the screen's sums round differently from the exact ones; near-ties
    are where that can change the top k. Short documents are covered by
    `TestRetrievalOracle`.
    """
    words = st.sampled_from(["which", "did", "work", "for", "alpha", "beta", "gamma", "1949"])
    originals = draw(st.lists(st.lists(words, min_size=6, max_size=12), min_size=1, max_size=5))
    texts = []
    for tokens in originals:
        for _ in range(draw(st.integers(1, 3))):
            texts.append(" ".join(draw(st.permutations(tokens))))
    texts = draw(st.permutations(texts))
    skip = set(draw(st.lists(st.integers(0, len(texts) - 1), max_size=2)))
    if draw(st.booleans()):
        # the query is a pool document left out under its id, and any copy of
        # it under another id stays in
        target = draw(st.integers(0, len(texts) - 1))
        query = texts[target]
        skip.add(target)
    else:
        query = " ".join(draw(st.lists(words, min_size=6, max_size=12)))
    return texts, query, draw(st.integers(1, len(texts))), tuple(sorted(skip))


class TestScreenedRank:
    """`IdfIndex.rank` screens on cached norms and rescores the near-top; it
    must return exactly what the full scan returns, ties included."""

    @pytest.mark.parametrize("reference", REFERENCE_KINDS)
    def test_synthkb_pool_every_target(self, synthetic_dataset, reference):
        texts = [inst.query(reference) for inst in synthetic_dataset]
        docs = [Counter(_oracle_tokens(text)) for text in texts]
        index = IdfIndex.build(texts)
        for pos, query in enumerate(texts):
            # the target's before/after sibling shares most of its tokens
            for skip in ((), (pos,), tuple(sorted({pos, pos ^ 1} & set(range(len(texts)))))):
                assert index.rank(query, 3, skip) == _scan_rank(docs, query, 3, skip), (pos, skip)

    @settings(max_examples=400, deadline=None)
    @given(_near_tie_cases())
    # the same tokens in three orders, where the screen's sums round the
    # other way round from the exact ones
    @example((["b b b a c d b f c b c", "f a c b c b b c b b d", "c", "b b b a b b c c c f d"],
              "g g h d a b c d f a a", 1, ()))
    @example((["a c a f b c e a c g", "b c a c", "d a c a d d b c b", "b c d d",
               "d d b c a a c b d", "c d b d", "a c c b", "c d b b c d d a a", "c",
               "b d c d", "a c b c", "c"], "b g e h a h f g d d a", 3, ()))
    def test_near_ties(self, case):
        texts, query, k, skip = case
        docs = [Counter(_oracle_tokens(text)) for text in texts]
        assert IdfIndex.build(texts).rank(query, k, skip) == _scan_rank(docs, query, k, skip)


class TestRenderPrompt:
    def test_zero_shot_is_query_plus_cue(self):
        prompt = render_prompt("Who?", [], PromptStyle("zero"), "absolute")
        assert prompt == "Question: Who?\nAnswer:"

    def test_semantic_cot_includes_time_pathway_for_chronological(self, pool):
        style = PromptStyle("semantic-cot", 3)
        demos = pool[:3]
        prompt = render_prompt("Who?", demos, style, "chronological")
        for demo in demos:
            assert demo.pathway_time_oriented in prompt
            assert demo.pathway_event_oriented not in prompt
            assert demo.query_chronological in prompt

    def test_semantic_cot_includes_event_pathway_for_absolute(self, pool):
        style = PromptStyle("semantic-cot", 3)
        prompt = render_prompt("Who?", pool[:3], style, "absolute")
        for demo in pool[:3]:
            assert demo.pathway_event_oriented in prompt

    def test_icl_has_no_pathway_text(self, pool):
        prompt = render_prompt("Who?", pool[:3], PromptStyle("icl", 3), "chronological")
        assert "because" not in prompt
        assert "Reasoning:" not in prompt

    def test_demo_count_must_match_shots(self, pool):
        with pytest.raises(ValueError):
            render_prompt("Who?", pool[:2], PromptStyle("icl", 3), "absolute")

    def test_deterministic(self, pool):
        style = PromptStyle("semantic-icl", 3)
        query = pool[0].query_chronological

        def render():
            demos = select_demonstrations(pool, query, style, seed=5)
            return render_prompt(query, demos, style, "chronological")

        assert render() == render()


class TestSftExport:
    def test_pelikan_chronological_cross(self, pelikan_instance):
        record = render_sft_record(pelikan_instance, "chronological", "cross")
        assert record.input == pelikan_instance.query_chronological
        assert record.output == PELIKAN_PATHWAY_TIME + "\nvalparaiso university"
        assert "right before january 1949" in record.output

    def test_pelikan_absolute_cross(self, pelikan_instance):
        record = render_sft_record(pelikan_instance, "absolute", "cross")
        assert record.input == pelikan_instance.query_absolute
        assert record.output == PELIKAN_PATHWAY_EVENT + "\nvalparaiso university"
        assert "right before concordia seminary" in record.output

    def test_unilateral_rejects_chronological(self, pelikan_instance):
        with pytest.raises(PairingViolation):
            render_sft_record(pelikan_instance, "chronological", "unilateral")

    def test_cross_exports_two_per_instance(self, pool):
        records = export_sft(pool, "cross")
        assert len(records) == 2 * len(pool)

    def test_unilateral_exports_one_per_instance(self, pool):
        records = export_sft(pool, "unilateral")
        assert len(records) == len(pool)
        assert all(r.input != "" for r in records)

    def test_outputs_non_empty(self, pool):
        assert all(r.output for r in export_sft(pool, "cross"))
