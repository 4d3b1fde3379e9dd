import math

import pytest
from hypothesis import given, settings, strategies as st

from trc_toolkit.errors import ProfileMissing
from trc_toolkit.translation import (
    ChrfConfig,
    LanguageProfile,
    _profile_cosine,
    _trigrams,
    bleu_n,
    chrf_pp,
    detect_language,
    translation_success_rate,
)


# --- independent oracles (kept deliberately naive) ---

def _ngram_list(seq, order):
    return [tuple(seq[i:i + order]) for i in range(len(seq) - order + 1)]


def _clipped_overlap(hyp_grams, ref_grams):
    matched = 0
    remaining = list(ref_grams)
    for gram in hyp_grams:
        if gram in remaining:
            remaining.remove(gram)
            matched += 1
    return matched


def oracle_chrf(hyp, ref, char_max=6, word_max=2, beta=2.0):
    hyp, ref = " ".join(hyp.split()), " ".join(ref.split())
    pools = []
    for order in range(1, char_max + 1):
        pools.append((_ngram_list(hyp.replace(" ", ""), order),
                      _ngram_list(ref.replace(" ", ""), order)))
    for order in range(1, word_max + 1):
        pools.append((_ngram_list(hyp.split(), order),
                      _ngram_list(ref.split(), order)))
    scores = []
    for hyp_grams, ref_grams in pools:
        if not hyp_grams and not ref_grams:
            continue
        if not hyp_grams or not ref_grams:
            scores.append(0.0)
            continue
        matched = _clipped_overlap(hyp_grams, ref_grams)
        p = matched / len(hyp_grams)
        r = matched / len(ref_grams)
        scores.append(0.0 if p + r == 0 else
                      (1 + beta ** 2) * p * r / (beta ** 2 * p + r))
    return 100 * sum(scores) / len(scores)


def oracle_bleu(hyp, ref, max_order, smoothing):
    hyp_tokens, ref_tokens = hyp.split(), ref.split()
    logs = []
    for order in range(1, max_order + 1):
        hyp_grams = _ngram_list(hyp_tokens, order)
        if not hyp_grams:
            continue
        matched = _clipped_overlap(hyp_grams, _ngram_list(ref_tokens, order))
        if smoothing == "add_one" and order > 1:
            logs.append(math.log((matched + 1) / (len(hyp_grams) + 1)))
        else:
            if matched == 0:
                return 0.0
            logs.append(math.log(matched / len(hyp_grams)))
    if not logs:
        return 0.0
    bp = 1.0 if len(hyp_tokens) >= len(ref_tokens) else \
        math.exp(1 - len(ref_tokens) / len(hyp_tokens))
    return bp * math.exp(sum(logs) / len(logs))


class TestChrf:
    def test_identical_strings(self):
        assert chrf_pp("le chat noir", "le chat noir") == 100.0

    def test_no_shared_ngrams(self):
        assert chrf_pp("abc", "xyz") == 0.0

    def test_both_empty(self):
        assert chrf_pp("", "") == 100.0

    def test_one_empty(self):
        assert chrf_pp("", "le chat") == 0.0
        assert chrf_pp("le chat", "") == 0.0

    def test_against_oracle_enumeration(self):
        hyp, ref = "le chat noir", "le chat vert"
        assert chrf_pp(hyp, ref) == pytest.approx(oracle_chrf(hyp, ref))

    def test_whitespace_invariance(self):
        assert chrf_pp("  le   chat noir ", "le chat vert") == \
            chrf_pp("le chat noir", "le chat vert")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChrfConfig(char_ngram_max=0)
        with pytest.raises(ValueError):
            ChrfConfig(beta=0)

    @given(st.text(alphabet="abcde ", min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_identity_property(self, text):
        if text.strip():
            assert chrf_pp(text, text) == pytest.approx(100.0)


SENTENCE = "the quick brown fox jumps high"


class TestBleu:
    def test_identical(self):
        assert bleu_n(SENTENCE, SENTENCE, 3) == pytest.approx(1.0)

    def test_disjoint(self):
        assert bleu_n("alpha beta gamma", "delta epsilon zeta", 3) == 0.0
        assert bleu_n("alpha beta gamma", "delta epsilon zeta", 3, "none") == 0.0

    def test_truncated_hypothesis_matches_oracle(self):
        hyp = " ".join(SENTENCE.split()[:-1])
        for smoothing in ("none", "add_one"):
            assert bleu_n(hyp, SENTENCE, 3, smoothing) == \
                pytest.approx(oracle_bleu(hyp, SENTENCE, 3, smoothing))

    def test_unsmoothed_zero_precision_gives_zero(self):
        # shares unigrams but no bigrams
        assert bleu_n("fox the", SENTENCE, 2, "none") == 0.0

    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                    min_size=2, max_size=10),
           st.integers(min_value=0, max_value=9))
    @settings(max_examples=300)
    def test_oov_replacement_never_increases_score(self, tokens, position):
        reference = " ".join(tokens)
        degraded = list(tokens)
        degraded[position % len(tokens)] = "zzqx"
        for smoothing in ("none", "add_one"):
            assert bleu_n(" ".join(degraded), reference, 3, smoothing) <= \
                bleu_n(reference, reference, 3, smoothing) + 1e-12

    @given(st.lists(st.sampled_from(["un", "deux", "trois", "quatre"]),
                    min_size=1, max_size=8),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=200)
    def test_identity_property(self, tokens, order):
        if order <= len(tokens):
            text = " ".join(tokens)
            assert bleu_n(text, text, order) == pytest.approx(1.0)


ENGLISH_CORPUS = [
    "the committee approved the annual report on time",
    "she walked through the quiet northern town",
    "which employer did the historian work for",
    "the council elected a new chairperson in march",
]
FRENCH_CORPUS = [
    "le comité a approuvé le rapport annuel",
    "elle a traversé la ville tranquille du nord",
    "pour quel employeur travaillait l'historien",
    "le conseil a élu une nouvelle présidente en mars",
]


@pytest.fixture
def profiles():
    return [
        LanguageProfile.from_corpus("en", ENGLISH_CORPUS),
        LanguageProfile.from_corpus("fr", FRENCH_CORPUS),
    ]


class TestTranslationSuccessRate:
    def test_all_expected(self, profiles):
        assert translation_success_rate(ENGLISH_CORPUS, "en", profiles) == 100.0

    def test_all_other_language(self, profiles):
        assert translation_success_rate(FRENCH_CORPUS, "en", profiles) == 0.0

    def test_mixed_batch(self, profiles):
        texts = ENGLISH_CORPUS[:3] + FRENCH_CORPUS[:1]
        assert translation_success_rate(texts, "en", profiles) == 75.0

    def test_detect_language(self, profiles):
        assert detect_language("the employer and the committee", profiles) == "en"
        assert detect_language("le comité et la présidente", profiles) == "fr"

    def test_missing_expected_profile(self, profiles):
        with pytest.raises(ProfileMissing):
            translation_success_rate(["text"], "ro", profiles)

    def test_needs_an_alternative(self, profiles):
        with pytest.raises(ProfileMissing):
            translation_success_rate(["text"], "en", profiles[:1])

    def test_profile_frequencies_validated(self):
        with pytest.raises(ValueError):
            LanguageProfile("xx", {"abc": 0.4, "bcd": 0.4})


# --- language detection before each profile's norm was cached ---

def _reference_profile_cosine(counts, profile):
    freqs = profile.trigram_frequencies
    dot = sum(c * freqs.get(t, 0.0) for t, c in counts.items())
    if dot == 0:
        return 0.0
    na = math.sqrt(sum(c * c for c in counts.values()))
    nb = math.sqrt(sum(f * f for f in freqs.values()))
    return dot / (na * nb)


def _reference_detect_language(text, profiles):
    counts = _trigrams(text)
    return max(profiles, key=lambda p: _reference_profile_cosine(counts, p)).language


_SENTENCES = st.lists(st.text(alphabet="abcdeéfgh ", min_size=1, max_size=30).filter(str.strip),
                      min_size=1, max_size=4)


class TestProfileNormOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_SENTENCES, min_size=2, max_size=4), st.lists(st.text(max_size=40), max_size=5))
    def test_matches_uncached_norm(self, corpora, texts):
        profiles = [LanguageProfile.from_corpus(f"l{k}", corpus)
                    for k, corpus in enumerate(corpora)]
        for text in texts:
            counts = _trigrams(text)
            assert [_profile_cosine(counts, p) for p in profiles] == \
                [_reference_profile_cosine(counts, p) for p in profiles]
            assert detect_language(text, profiles) == _reference_detect_language(text, profiles)
