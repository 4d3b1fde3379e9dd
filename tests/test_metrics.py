import dataclasses
import math
import string
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from trc_toolkit.errors import (
    DuplicateInstanceId,
    DuplicateResponse,
    EmptyInput,
    LengthMismatch,
    MissingGold,
    MixedModels,
    UnknownInstanceId,
    ZeroVariance,
)
from trc_toolkit.metrics import (
    Response,
    ResponsePair,
    consistent_factuality,
    evaluate,
    exact_match,
    normalize_answer,
    pair_responses,
    pearson,
    referential_consistency,
    score_deviation,
    token_f1,
)

ENTITY_COUNTS = [1583, 892, 930, 187, 717, 117]
TUNED_TRC = [34.18, 35.76, 60.86, 43.85, 46.3, 40.17]
BASELINE_TRCF = [2.02, 0.56, 14.95, 1.07, 2.79, 8.55]
TUNED_TRCF = [7.77, 0.34, 45.81, 5.88, 3.35, 15.38]


class TestNormalizeAnswer:
    def test_basic(self):
        assert normalize_answer("Valparaiso University") == ["valparaiso", "university"]

    def test_digits_kept(self):
        assert normalize_answer("FC Ingolstadt 04") == ["fc", "ingolstadt", "04"]

    def test_empty(self):
        assert normalize_answer("") == []

    def test_articles_dropped(self):
        assert normalize_answer("The University of the Andes") == \
            ["university", "of", "andes"]

    @given(st.text())
    @settings(max_examples=300)
    def test_translate_equals_per_character_join(self, text):
        punct = set("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")   # the ASCII punctuation
        cleaned = "".join(" " if ch in punct or unicodedata.category(ch).startswith("P") else ch
                          for ch in unicodedata.normalize("NFKC", text).lower())
        expected = [t for t in cleaned.split() if t not in {"a", "an", "the"}]
        assert normalize_answer(text) == expected

    @pytest.mark.parametrize("text, plain", [
        ("„Partidul Social Democrat”", "Partidul Social Democrat"),   # Romanian quotes
        ("«Parti socialiste»", "Parti socialiste"),                   # French guillemets
        ("l’Union européenne", "l'Union européenne"),                 # typographic apostrophe
        ("Real Madrid…", "Real Madrid"),                              # ellipsis character
        ("Ｒeal Madrid", "Real Madrid"),                               # fullwidth letter
    ])
    def test_non_ascii_punctuation_and_forms_match_the_plain_form(self, text, plain):
        assert normalize_answer(text) == normalize_answer(plain)
        assert exact_match(text, plain) == 1

    @given(st.text(alphabet=st.characters(max_codepoint=127)))
    @settings(max_examples=300)
    def test_ascii_text_normalises_as_before(self, text):
        # the rule before NFKC and Unicode punctuation, which covered ASCII alike
        table = str.maketrans(string.punctuation, " " * len(string.punctuation))
        expected = [t for t in text.lower().translate(table).split()
                    if t not in {"a", "an", "the"}]
        assert normalize_answer(text) == expected


class TestExactMatch:
    def test_case_insensitive(self):
        assert exact_match("valparaiso university", "Valparaiso University") == 1

    def test_identity(self):
        assert exact_match("fc köln", "fc köln") == 1

    def test_mismatch(self):
        assert exact_match("fc köln", "fc ingolstadt 04") == 0


class TestTokenF1:
    def test_partial_overlap(self):
        # precision 2/3, recall 1 -> harmonic mean 0.8
        assert token_f1("valparaiso university usa", "valparaiso university") == \
            pytest.approx(0.8)

    def test_identical(self):
        assert token_f1("some long answer", "some long answer") == 1.0

    def test_disjoint(self):
        assert token_f1("alpha beta", "gamma delta") == 0.0

    def test_both_empty(self):
        assert token_f1("", "") == 1.0

    def test_one_empty(self):
        assert token_f1("", "something") == 0.0


def _binary_scores(m, rate):
    ones = round(m * rate)
    return [1.0] * ones + [0.0] * (m - ones)


class TestFactualDeviation:
    def test_reported_em_row(self):
        # per-arm EM rate vectors with the reported means 5.01% and 7.95%
        dev = score_deviation(_binary_scores(10000, 0.0501),
                              _binary_scores(10000, 0.0795))
        assert dev == pytest.approx(-2.94, abs=0.005)

    def test_reported_f1_row(self):
        dev = score_deviation([0.1340] * 500, [0.1882] * 500)
        assert dev == pytest.approx(-5.42, abs=0.005)

    def test_identical_arms_zero(self, synthetic_dataset):
        pairs = [ResponsePair(inst.id, answer, answer) for inst, answer in
                 zip(synthetic_dataset[:5], ["x", "nobody", synthetic_dataset[2].answer, "", "x"])]
        report = evaluate(synthetic_dataset, pairs)
        assert report.dev_em == report.dev_f1 == 0.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            score_deviation([], [1.0])
        with pytest.raises(EmptyInput):
            score_deviation([1.0], [])


class TestReferentialConsistency:
    def test_all_identical(self):
        pairs = [ResponsePair(f"i{k}", "same", "Same") for k in range(4)]
        assert referential_consistency(pairs) == 100.0

    def test_none_identical(self):
        pairs = [ResponsePair(f"i{k}", "a", "b") for k in range(4)]
        assert referential_consistency(pairs) == 0.0

    def test_two_of_four(self):
        pairs = [
            ResponsePair("i0", "x", "x"),
            ResponsePair("i1", "x", "y"),
            ResponsePair("i2", "z", "z"),
            ResponsePair("i3", "p", "q"),
        ]
        # brute-force count: pairs i0 and i2 match, 2/4
        expected = 100 * sum(
            p.answer_absolute == p.answer_chronological for p in pairs) / len(pairs)
        assert referential_consistency(pairs) == expected == 50.0

    def test_compares_normalised_answers(self):
        pairs = [ResponsePair("i0", "Same", "same"), ResponsePair("i1", "The same.", "same")]
        assert referential_consistency(pairs) == 100.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            referential_consistency([])


class TestConsistentFactuality:
    GOLD = {"i0": "member of the 22nd parliament of the united kingdom"}

    def test_brodrick_both_arms_correct(self):
        pairs = [ResponsePair("i0",
                              "member of the 22nd parliament of the united kingdom",
                              "member of the 22nd parliament of the united kingdom")]
        assert consistent_factuality(pairs, self.GOLD) == 100.0

    def test_identical_but_wrong(self):
        pairs = [ResponsePair("i0", "wrong answer", "wrong answer")]
        assert consistent_factuality(pairs, self.GOLD) == 0.0

    def test_arms_differ_one_correct(self):
        # only the chronological arm is right
        pairs = [ResponsePair("i0",
                              "member of the 23rd parliament of the united kingdom",
                              "member of the 22nd parliament of the united kingdom")]
        assert consistent_factuality(pairs, self.GOLD) == 0.0

    def test_missing_gold(self):
        with pytest.raises(MissingGold):
            consistent_factuality([ResponsePair("i0", "a", "b")], {})


class TestPearson:
    def test_self_correlation(self):
        v = [1.0, 2.0, 5.0, 9.0]
        assert pearson(v, v) == pytest.approx(1.0)

    def test_anti_correlation(self):
        v = [1.0, 2.0, 5.0, 9.0]
        assert pearson(v, [-x for x in v]) == pytest.approx(-1.0)

    def test_entity_counts_vs_trc(self):
        assert pearson(ENTITY_COUNTS, TUNED_TRC) == pytest.approx(-0.15, abs=0.03)

    def test_trcf_cross_model(self):
        assert pearson(BASELINE_TRCF, TUNED_TRCF) == pytest.approx(0.95, abs=0.03)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pearson([1, 1, 1], [1, 2, 3])

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=3, max_size=20),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=-50, max_value=50),
    )
    @settings(max_examples=200)
    def test_affine_invariance(self, x, a, b):
        y = list(range(len(x)))
        if len(set(x)) < 2:
            return
        scaled = [a * v + b for v in x]
        assert abs(pearson(scaled, y) - pearson(x, y)) < 1e-12


def _oracle_pairs(dataset, absolute_fn, chronological_fn):
    return [ResponsePair(inst.id, absolute_fn(inst), chronological_fn(inst))
            for inst in dataset]


class TestPairResponses:
    def test_an_instance_is_paired_only_if_both_arms_came_back(self):
        responses = [Response("i0", "absolute", "x"), Response("i1", "chronological", "y"),
                     Response("i0", "chronological", "z"),
                     Response("i1", "absolute", "", "HTTP 503")]
        assert pair_responses(responses) == [ResponsePair("i0", "x", "z")]

    def test_a_second_response_for_one_arm_is_refused(self):
        # even when one of the two is an error: nothing tells which one to score
        responses = [Response("i0", "absolute", "x"), Response("i0", "absolute", "", "timeout")]
        with pytest.raises(DuplicateResponse, match="second absolute response for instance 'i0'"):
            pair_responses(responses)

    @pytest.mark.parametrize("second", ["model-b", ""], ids=["named", "unnamed"])
    def test_a_second_model_is_refused(self, second):
        # a row without a model name reads as "", which is another name
        responses = [Response("i0", "absolute", "x", None, "model-a"),
                     Response("i0", "chronological", "x", None, second)]
        with pytest.raises(MixedModels, match=f"two models, 'model-a' and {second!r}, "
                                              "at instance 'i0'"):
            pair_responses(responses)

    def test_rows_without_a_model_name_are_one_model(self):
        responses = [Response("i0", "absolute", "x"), Response("i0", "chronological", "y")]
        assert pair_responses(responses) == [ResponsePair("i0", "x", "y")]

    def test_an_unknown_reference_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown reference kind 'Absolute'"):
            Response("i0", "Absolute", "x")


class TestEvaluate:
    def test_perfect_oracle(self, synthetic_dataset):
        pairs = _oracle_pairs(synthetic_dataset,
                              lambda i: i.answer, lambda i: i.answer)
        report = evaluate(synthetic_dataset, pairs)
        assert (report.em_ctr, report.em_atr) == (100.0, 100.0)
        assert (report.f1_ctr, report.f1_atr) == (100.0, 100.0)
        assert (report.trc, report.trcf) == (100.0, 100.0)
        assert report.dev_em == report.dev_f1 == 0.0

    def test_reference_blind_responder(self, synthetic_dataset):
        dataset = synthetic_dataset[:10]
        pairs = _oracle_pairs(dataset, lambda i: "unknown", lambda i: i.answer)
        report = evaluate(dataset, pairs)
        assert report.em_ctr == 100.0
        assert report.em_atr == 0.0
        assert report.dev_em == -100.0
        assert report.trc == 0.0
        assert report.trcf == 0.0

    def test_unknown_instance_id(self, synthetic_dataset):
        with pytest.raises(UnknownInstanceId):
            evaluate(synthetic_dataset, [ResponsePair("nope", "a", "b")])

    def test_empty_responses(self, synthetic_dataset):
        with pytest.raises(EmptyInput):
            evaluate(synthetic_dataset, [])

    def test_repeated_dataset_id_is_rejected(self, synthetic_dataset):
        # the second instance under the first one's id, with another answer:
        # keeping either copy would make the score depend on row order
        a, other = synthetic_dataset[0], synthetic_dataset[1]
        assert a.answer != other.answer
        duplicate = dataclasses.replace(other, id=a.id)
        pairs = [ResponsePair(a.id, a.answer, a.answer)]
        for dataset in ([a, duplicate], [duplicate, a]):
            with pytest.raises(DuplicateInstanceId, match=f"dataset repeats instance id {a.id!r}"):
                evaluate(dataset, pairs)

    def test_repeated_response_pair_is_rejected(self, synthetic_dataset):
        # scored twice, a repeated pair would weigh double: m 3 and trcf 66.67
        # for [p, p, q] against m 2 and trcf 50.0 for [p, q]
        a, b = synthetic_dataset[0], synthetic_dataset[1]
        p = ResponsePair(a.id, a.answer, a.answer)
        q = ResponsePair(b.id, b.answer, "wrong")
        assert (evaluate(synthetic_dataset, [p, q]).m,
                evaluate(synthetic_dataset, [p, q]).trcf) == (2, 50.0)
        for pairs in ([p, p, q], [p, q, p], [q, p, dataclasses.replace(p, answer_absolute="x")]):
            with pytest.raises(DuplicateResponse, match=f"second response pair for instance {a.id!r}"):
                evaluate(synthetic_dataset, pairs)

    def test_breakdown_counts_sum_to_m(self, synthetic_dataset):
        pairs = _oracle_pairs(synthetic_dataset,
                              lambda i: i.answer, lambda i: "something else")
        report = evaluate(synthetic_dataset, pairs)
        assert sum(c for _, _, c in report.per_entity.values()) == report.m
        assert sum(c for _, _, c in report.per_language.values()) == report.m

    def test_permutation_invariance(self, synthetic_dataset):
        import random
        pairs = _oracle_pairs(
            synthetic_dataset,
            lambda i: i.answer if len(i.id) % 2 else "x",
            lambda i: i.answer if len(i.answer) % 2 else "y")
        shuffled = pairs[:]
        random.Random(3).shuffle(shuffled)
        assert evaluate(synthetic_dataset, pairs) == evaluate(synthetic_dataset, shuffled)


_ANSWER_FORMS = {
    "gold": lambda gold: gold,
    "variant": lambda gold: "The " + gold.upper() + ".",
    "partial": lambda gold: gold.split()[0],
    "wrong": lambda gold: "nobody",
    "empty": lambda gold: "",
}


def _deviation(scorer, pairs, golds):
    """ATR - CTR of one scorer over the two arms, from the standalone functions."""
    return score_deviation([scorer(p.answer_absolute, golds[p.instance_id]) for p in pairs],
                           [scorer(p.answer_chronological, golds[p.instance_id]) for p in pairs])


class TestSingleScoringRule:
    """evaluate() and the standalone metrics are one rule, so they agree exactly."""

    def test_six_pair_deviation(self, synthetic_dataset):
        # 2/6 absolute hits and 1/6 chronological: 33.33 - 16.67 = 16.66, not
        # the 16.67 the unrounded arm means would give
        dataset = synthetic_dataset[:6]
        pairs = [ResponsePair(inst.id, inst.answer if k < 2 else "nobody",
                              inst.answer if k < 1 else "nobody")
                 for k, inst in enumerate(dataset)]
        golds = {inst.id: inst.answer for inst in dataset}
        report = evaluate(dataset, pairs)
        assert (report.em_atr, report.em_ctr) == (33.33, 16.67)
        assert _deviation(exact_match, pairs, golds) == report.dev_em == 16.66
        assert _deviation(token_f1, pairs, golds) == report.dev_f1 == 16.66

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 59), st.sampled_from(sorted(_ANSWER_FORMS)),
                              st.sampled_from(sorted(_ANSWER_FORMS))),
                    min_size=1, max_size=24, unique_by=lambda row: row[0]))
    def test_evaluate_matches_standalone_metrics(self, synthetic_dataset, rows):
        dataset = synthetic_dataset[::3][:60]
        pairs = [ResponsePair(dataset[i].id, _ANSWER_FORMS[a](dataset[i].answer),
                              _ANSWER_FORMS[c](dataset[i].answer)) for i, a, c in rows]
        golds = {inst.id: inst.answer for inst in dataset}
        report = evaluate(dataset, pairs)
        assert report.trc == referential_consistency(pairs)
        assert report.trcf == consistent_factuality(pairs, golds)
        assert report.dev_em == _deviation(exact_match, pairs, golds)
        assert report.dev_f1 == _deviation(token_f1, pairs, golds)
        by_id = {inst.id: inst for inst in dataset}
        for attr, rows_by_group in (("entity_type", report.per_entity),
                                    ("language", report.per_language)):
            groups: dict[str, list[ResponsePair]] = {}
            for pair in pairs:
                groups.setdefault(getattr(by_id[pair.instance_id], attr), []).append(pair)
            assert rows_by_group == {
                name: (referential_consistency(group),
                       consistent_factuality(group, golds), len(group))
                for name, group in groups.items()}
