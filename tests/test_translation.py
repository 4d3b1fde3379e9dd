import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from trc_toolkit.errors import ProfileMissing
from trc_toolkit.translation import (
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


def oracle_bleu(hyp, ref, max_order):
    hyp_tokens, ref_tokens = hyp.split(), ref.split()
    logs = []
    for order in range(1, max_order + 1):
        hyp_grams = _ngram_list(hyp_tokens, order)
        if not hyp_grams:
            continue
        matched = _clipped_overlap(hyp_grams, _ngram_list(ref_tokens, order))
        if order > 1:
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

    def test_worked_example_averages_f_over_orders(self):
        # hyp "ab", ref "abc", chars 1-6, words 1-2, beta 2,
        # F = (1 + b^2) P R / (b^2 P + R):
        #   char 1-grams: 2 of 2 hyp, 2 of 3 ref match: P 1, R 2/3, F 5/7
        #   char 2-grams: "ab" matches:                P 1, R 1/2, F 5/9
        #   char 3-grams: none on the hyp side:        F 0
        #   char 4-6-grams: none on either side:       not counted
        #   word 1-grams: "ab" vs "abc":               F 0
        #   word 2-grams: none on either side:         not counted
        # chrf_pp is the mean F: (5/7 + 5/9 + 0 + 0) / 4 = 20/63.
        assert chrf_pp("ab", "abc") == pytest.approx(100 * 20 / 63)
        # Popović (WMT 2015) takes F of the mean P (1/2) and mean R (7/24)
        # over the same four orders, the char 3-grams' P taken as 0:
        # 7/22, which is not the value above.
        assert chrf_pp("ab", "abc") != pytest.approx(100 * 7 / 22)

    def test_whitespace_invariance(self):
        assert chrf_pp("  le   chat noir ", "le chat vert") == \
            chrf_pp("le chat noir", "le chat vert")

    @given(st.text(alphabet="abcde ", min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_identity_property(self, text):
        if text.strip():
            assert chrf_pp(text, text) == pytest.approx(100.0)


SENTENCE = "the quick brown fox jumps high"


class TestBleu:
    def test_identical(self):
        assert bleu_n(SENTENCE, SENTENCE) == pytest.approx(1.0)

    def test_disjoint(self):
        assert bleu_n("alpha beta gamma", "delta epsilon zeta") == 0.0

    def test_truncated_hypothesis_matches_oracle(self):
        hyp = " ".join(SENTENCE.split()[:-1])
        assert bleu_n(hyp, SENTENCE) == pytest.approx(oracle_bleu(hyp, SENTENCE, 3))

    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                    min_size=2, max_size=10),
           st.integers(min_value=0, max_value=9))
    @settings(max_examples=300)
    def test_oov_replacement_never_increases_score(self, tokens, position):
        reference = " ".join(tokens)
        degraded = list(tokens)
        degraded[position % len(tokens)] = "zzqx"
        assert bleu_n(" ".join(degraded), reference) <= bleu_n(reference, reference) + 1e-12

    @given(st.lists(st.sampled_from(["un", "deux", "trois", "quatre"]),
                    min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_identity_property(self, tokens):
        # one or two tokens have no n-grams of the higher orders, which are left out
        text = " ".join(tokens)
        assert bleu_n(text, text) == pytest.approx(1.0)


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

    @pytest.mark.parametrize("first", ["en", "fr"])
    def test_a_text_sharing_no_trigram_is_a_miss_in_any_profile_order(self, profiles, first):
        ordered = sorted(profiles, key=lambda p: p.language != first)
        assert ordered[0].language == first
        assert detect_language("", ordered) is None
        texts = ["the committee approved the report", ""]
        assert translation_success_rate(texts, "en", ordered) == 50.0

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
    if all(_reference_profile_cosine(counts, p) == 0 for p in profiles):
        return None
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
            norm = math.sqrt(sum(c * c for c in counts.values()))
            assert [_profile_cosine(counts, norm, p) for p in profiles] == \
                [_reference_profile_cosine(counts, p) for p in profiles]
            assert detect_language(text, profiles) == _reference_detect_language(text, profiles)


# --- chrF++ and BLEU before each order's n-grams were counted once per side ---

def _reference_char_ngrams(text, order):
    chars = " ".join(text.split()).replace(" ", "")
    return Counter(chars[i:i + order] for i in range(len(chars) - order + 1))


def _reference_word_ngrams(tokens, order):
    return Counter(tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1))


def _reference_chrf_pp(hypothesis, reference, char_max=6, word_max=2, beta=2.0):
    hypothesis, reference = " ".join(hypothesis.split()), " ".join(reference.split())
    if not hypothesis and not reference:
        return 100.0
    if not hypothesis or not reference:
        return 0.0
    grams = [(_reference_char_ngrams(hypothesis, order), _reference_char_ngrams(reference, order))
             for order in range(1, char_max + 1)]
    grams += [(_reference_word_ngrams(hypothesis.split(), order),
               _reference_word_ngrams(reference.split(), order))
              for order in range(1, word_max + 1)]
    scores = []
    for hyp_counts, ref_counts in grams:
        total_hyp, total_ref = sum(hyp_counts.values()), sum(ref_counts.values())
        if total_hyp == 0 and total_ref == 0:
            continue
        if total_hyp == 0 or total_ref == 0:
            scores.append(0.0)
            continue
        common = sum((hyp_counts & ref_counts).values())
        precision, recall = common / total_hyp, common / total_ref
        if precision + recall == 0:
            scores.append(0.0)
            continue
        b2 = beta * beta
        scores.append((1 + b2) * precision * recall / (b2 * precision + recall))
    return 100 * sum(scores) / len(scores) if scores else 0.0


def _reference_bleu_n(hypothesis, reference, max_order):
    hyp_tokens, ref_tokens = hypothesis.split(), reference.split()
    if not hyp_tokens or not ref_tokens:
        return 0.0
    log_sum, used = 0.0, 0
    for order in range(1, max_order + 1):
        hyp_counts = _reference_word_ngrams(hyp_tokens, order)
        total = sum(hyp_counts.values())
        if total == 0:
            continue
        matched = sum((hyp_counts & _reference_word_ngrams(ref_tokens, order)).values())
        if order > 1:
            precision = (matched + 1) / (total + 1)
        else:
            if matched == 0:
                return 0.0
            precision = matched / total
        log_sum += math.log(precision)
        used += 1
    if used == 0:
        return 0.0
    brevity = 1.0 if len(hyp_tokens) >= len(ref_tokens) else math.exp(
        1 - len(ref_tokens) / len(hyp_tokens))
    return brevity * math.exp(log_sum / used)


_MT_TEXT = st.text(alphabet="abcé \t\n　", max_size=40)
_WIDE_WORD = st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCÉéßøł東京-'?.,", min_size=1, max_size=12),
    st.sampled_from(["000", "00", "000-0", "000-1", "0", "1902", "Works"]))
_WIDE_TEXT = st.lists(_WIDE_WORD, max_size=16).map(" ".join).map(lambda text: text[:120])


class TestNgramCountingOracle:
    @settings(max_examples=300, deadline=None)
    @given(_MT_TEXT, _MT_TEXT)
    def test_chrf_matches_per_order_counting(self, hyp, ref):
        assert chrf_pp(hyp, ref) == _reference_chrf_pp(hyp, ref)

    @settings(max_examples=300, deadline=None)
    @given(_MT_TEXT, _MT_TEXT)
    def test_bleu_matches_per_order_counting(self, hyp, ref):
        assert bleu_n(hyp, ref) == _reference_bleu_n(hyp, ref, 3)

    # Wider text: most char orders of 3 and above repeat no n-gram in the
    # hypothesis, so the clipped count is a set intersection, while digit runs
    # ("000") and short alphabets keep the Counter fallback in play. The
    # examples repeat n-grams on the hypothesis side only.
    @settings(max_examples=300, deadline=None)
    @given(_WIDE_TEXT, _WIDE_TEXT)
    @example("000 000 aa", "0 1 2 a")
    @example("the the cat cat", "the cat sat")
    @example("Worx 000-0 Worx 000-0", "Works 000-1 Works 000-2")
    def test_chrf_matches_on_wide_text(self, hyp, ref):
        assert chrf_pp(hyp, ref) == _reference_chrf_pp(hyp, ref)
        assert chrf_pp(ref, hyp) == _reference_chrf_pp(ref, hyp)

    @settings(max_examples=300, deadline=None)
    @given(_WIDE_TEXT, _WIDE_TEXT)
    @example("the the the cat", "the cat sat on")
    @example("000 000 000-1 000 000-1", "000 000-1 000-2")
    def test_bleu_matches_on_wide_text(self, hyp, ref):
        assert bleu_n(hyp, ref) == _reference_bleu_n(hyp, ref, 3)
        assert bleu_n(ref, hyp) == _reference_bleu_n(ref, hyp, 3)


# --- language profiles before each line's trigrams went straight into one Counter ---

def _reference_from_corpus_frequencies(texts):
    counts = Counter()
    for text in texts:
        padded = f" {' '.join(text.lower().split())} "
        counts.update(Counter(padded[i:i + 3] for i in range(len(padded) - 2)))
    total = sum(counts.values())
    return {t: c / total for t, c in counts.items()}


class TestFromCorpusOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_WIDE_TEXT.filter(str.strip), min_size=1, max_size=6))
    def test_same_frequencies_in_the_same_order(self, texts):
        profile = LanguageProfile.from_corpus("xx", texts)
        expected = _reference_from_corpus_frequencies(texts)
        assert list(profile.trigram_frequencies.items()) == list(expected.items())
        assert profile.norm == math.sqrt(sum(f * f for f in expected.values()))
