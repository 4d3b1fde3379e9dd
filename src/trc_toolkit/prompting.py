"""Prompt rendering and instruction-tuning export.

Demonstration selection for the "semantic" styles uses IDF-weighted cosine
similarity over bag-of-words vectors: deterministic and dependency-free.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
import re
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import PairingViolation, PoolTooSmall
from .manifest import JsonRecord
from .querygen import BenchmarkInstance, check_reference_kind

STYLE_KINDS = ("zero", "icl", "semantic-icl", "semantic-cot")  # the `--style` words
PAIRINGS = ("cross", "unilateral")  # the `--pairing` words
REASONING = "Reasoning: "  # the label of a semantic-cot demo's reasoning; no other style has it

# The one instruction every SFT record carries (UnTRaP trains from it).
INSTRUCTION = (
    "Answer the temporal question. Reason about which fact holds immediately "
    "before or after the given reference, then state only the answer entity."
)


@dataclass
class PromptStyle:
    kind: str = "icl"
    shots: int = 3

    def __post_init__(self):
        if self.kind not in STYLE_KINDS:
            raise ValueError(f"unknown prompt style {self.kind!r}")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.kind == "zero":
            self.shots = 0


@dataclass
class SftRecord(JsonRecord):
    instruction: str
    input: str
    output: str
    pairing: str


@dataclass
class PromptRow(JsonRecord):
    """One rendered prompt: what `trc prompt` writes and `trc collect` reads."""
    instance_id: str
    reference_kind: str
    prompt: str

    def __post_init__(self):
        check_reference_kind(self.reference_kind)


_TOKEN_RX = re.compile(r"[^\w\s]")


def _tokens(text: str) -> list[str]:
    return _TOKEN_RX.sub(" ", text.lower()).split()


# Relative widening of the screen's bounds. It covers the rounding of the
# screen's sums and ratios (a few ulps per summed term), with room for
# documents and queries of up to ~10^6 terms.
_SLACK = 1e-9


class IdfIndex:
    """Term statistics of one pool of texts, each tokenised once.

    Every document keeps its term counts in first-occurrence order. Ranking
    a query can leave some documents out: their terms' IDF is then taken
    over the remaining documents alone, with the same arithmetic as an index
    built over those documents, so a pool shared by every target of a run
    ranks exactly as a pool rebuilt without each target would.
    """

    def __init__(self, docs: list[Counter]):
        self.docs = docs
        self.n_docs = len(docs)
        self.df: Counter = Counter()
        self.postings: dict[str, list[tuple[int, int]]] = {}   # term -> (pos, count)
        for pos, doc in enumerate(docs):
            self.df.update(doc.keys())
            for term, count in doc.items():
                self.postings.setdefault(term, []).append((pos, count))
        # n -> (idf of every term, each document's norm under it)
        self._bases: dict[int, tuple[dict[str, float], list[float]]] = {}

    @classmethod
    def build(cls, texts: Sequence[str]) -> "IdfIndex":
        return cls([Counter(_tokens(text)) for text in texts])

    @staticmethod
    def _weight(n: int, df: int) -> float:
        return math.log((1 + n) / (1 + df)) + 1.0

    def _df(self, term: str, skip: Sequence[int]) -> int:
        return self.df[term] - sum(term in self.docs[pos] for pos in skip)

    def _base(self, n: int) -> tuple[dict[str, float], list[float]]:
        """IDF over n documents with nothing skipped, and every norm under it.

        A df above n belongs to a term of some skipped document, whose weight
        the caller replaces; capping it keeps every base weight >= 1.
        """
        if n not in self._bases:
            table = {t: self._weight(n, min(c, n)) for t, c in self.df.items()}
            norms = [math.sqrt(sum([v * v for v in [c * table[t] for t, c in doc.items()]]))
                     for doc in self.docs]
            self._bases[n] = table, norms
        return self._bases[n]

    def vector(self, text: str, skip: Sequence[int] = ()) -> dict[str, float]:
        n = self.n_docs - len(skip)
        return {t: c * self._weight(n, self._df(t, skip))
                for t, c in Counter(_tokens(text)).items()}

    def rank(self, query: str, k: int, skip: Sequence[int] = ()) -> list[int]:
        """Positions of the k documents most cosine-similar to `query`.

        Documents at the positions in `skip` are left out of the ranking and
        of the IDF; ties go to the earlier position.

        A screen scores every document that shares a term with the query
        against its cached norm under the base table of n = n_docs -
        len(skip). Only the skipped documents' terms change weight, each by a
        ratio >= 1, so a document's exact norm lies within [1, widest] times
        its base norm. Every document whose upper bound reaches the k-th
        largest lower bound is rescored with the exact arithmetic of a full
        scan (dot summed in query order, norm in document order), so the
        result does not depend on how the screen's sums round.
        """
        qvec = self.vector(query, skip)
        n = self.n_docs - len(skip)
        base, norms = self._base(n)
        overlay: dict[str, float] = {}   # skipped documents' terms -> idf
        widest = 1.0
        for pos in skip:
            for term in self.docs[pos]:
                if term not in overlay:
                    df = self._df(term, skip)
                    overlay[term] = self._weight(n, df)
                    if df:   # some remaining document holds the term
                        widest = max(widest, overlay[term] / base[term])
        # query terms that some document has, in query order, with their IDF
        shared = [(t, v, overlay.get(t, base[t])) for t, v in qvec.items() if t in base]
        dots = [0.0] * self.n_docs
        for t, v, w in shared:
            vw = v * w
            for pos, c in self.postings[t]:
                dots[pos] += vw * c
        for pos in skip:
            dots[pos] = 0.0
        # dot over base norm: the cosine's upper bound, up to the factor 1/na
        screen = {pos: dot / norms[pos] for pos, dot in enumerate(dots) if dot}
        cut = 0.0
        if 0 < k <= len(screen):
            cut = heapq.nlargest(k, screen.values())[-1] * (1 - _SLACK) / ((1 + _SLACK) * widest)
        na = math.sqrt(sum(v * v for v in qvec.values()))
        scored = []
        for pos, screened in screen.items():
            if screened >= cut:
                doc = self.docs[pos]
                dot = sum([v * (doc[t] * w) for t, v, w in shared if t in doc])
                nb = math.sqrt(sum([v * v for v in [c * overlay.get(t, base[t])
                                                    for t, c in doc.items()]]))
                scored.append((-(dot / (na * nb)), pos))
        top = [pos for _, pos in heapq.nsmallest(k, scored)]
        # fewer than k documents share a term: the rest score 0, in pool order
        left_out = set(skip)
        zeros = (pos for pos in range(self.n_docs) if pos not in screen and pos not in left_out)
        return top + list(itertools.islice(zeros, max(0, k - len(top))))


class DemoPool:
    """One language's demonstrations, shared by every target of a run.

    The IDF index of each reference kind is built on first use, so a style
    that never ranks (icl, zero-shot) never builds one.
    """

    def __init__(self, items: Sequence[BenchmarkInstance]):
        self.items = list(items)
        self._positions: dict[str, list[int]] = {}
        for pos, inst in enumerate(self.items):
            self._positions.setdefault(inst.id, []).append(pos)
        self._indexes: dict[str, IdfIndex] = {}

    def index(self, reference_kind: str) -> IdfIndex:
        if reference_kind not in self._indexes:
            self._indexes[reference_kind] = IdfIndex.build(
                [inst.query(reference_kind) for inst in self.items])
        return self._indexes[reference_kind]

    def without(self, instance_id: str) -> "Candidates":
        return Candidates(self, tuple(self._positions.get(instance_id, ())))


class Candidates(Sequence):
    """The pool minus every entry with one id, as a view: nothing is copied."""

    def __init__(self, pool: DemoPool, skip: tuple[int, ...]):
        self.pool, self.skip = pool, skip   # skip: ascending positions

    def __len__(self) -> int:
        return len(self.pool.items) - len(self.skip)

    def __getitem__(self, i: int) -> BenchmarkInstance:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        for pos in self.skip:
            if pos > i:
                break
            i += 1
        return self.pool.items[i]

    def most_similar(self, query: str, k: int, reference_kind: str) -> list[BenchmarkInstance]:
        index = self.pool.index(reference_kind)
        return [self.pool.items[pos] for pos in index.rank(query, k, self.skip)]


@functools.lru_cache(maxsize=64)
def _icl_draw(seed: int, n: int, k: int) -> tuple[int, ...]:
    """The positions `random.Random(seed).sample(pool, k)` picks from a pool
    of n: they depend on nothing else, so a run's targets share one draw."""
    return tuple(random.Random(seed).sample(range(n), k))


def select_demonstrations(pool: Sequence[BenchmarkInstance], query: str,
                          style: PromptStyle, seed: int,
                          reference_kind: str = "chronological",
                          ) -> list[BenchmarkInstance]:
    """Pick `style.shots` demos from the pool (assumed language-filtered).

    Any sequence works; a `Candidates` view lets the targets of one run
    share its pool's index instead of building one each.
    """
    if style.shots == 0:
        return []
    if len(pool) < style.shots:
        raise PoolTooSmall(f"pool of {len(pool)} cannot supply {style.shots} shots")
    if style.kind == "icl":
        return [pool[i] for i in _icl_draw(seed, len(pool), style.shots)]
    # semantic styles: IDF-weighted cosine, ties broken by pool order
    if not isinstance(pool, Candidates):
        pool = Candidates(DemoPool(pool), ())
    return pool.most_similar(query, style.shots, reference_kind)


def render_prompt(query: str, demos: list[BenchmarkInstance],
                  style: PromptStyle, reference_kind: str) -> str:
    """Question/answer demonstration blocks followed by the target query."""
    if len(demos) != style.shots:
        raise ValueError(f"expected {style.shots} demos, got {len(demos)}")
    check_reference_kind(reference_kind)
    blocks = []
    for demo in demos:
        lines = [f"Question: {demo.query(reference_kind)}"]
        if style.kind == "semantic-cot":
            lines.append(f"{REASONING}{demo.pathway(reference_kind)}")
        lines.append(f"Answer: {demo.answer}")
        blocks.append("\n".join(lines))
    blocks.append(f"Question: {query}\nAnswer:")
    return "\n\n".join(blocks)


def render_rows(targets: Sequence[BenchmarkInstance], pool: Iterable[BenchmarkInstance],
                style: PromptStyle, reference_kind: str, seed: int) -> list[PromptRow]:
    """One row per target; its demos come from its language's pool minus its id's entries."""
    by_language: dict[str, list] = {inst.language: [] for inst in targets}
    for inst in pool:
        by_language.setdefault(inst.language, []).append(inst)
    pools = {lang: DemoPool(items) for lang, items in by_language.items()}
    rows = []
    for inst in targets:
        query = inst.query(reference_kind)
        demos = select_demonstrations(pools[inst.language].without(inst.id), query, style,
                                      seed, reference_kind=reference_kind)
        rows.append(PromptRow(inst.id, reference_kind,
                              render_prompt(query, demos, style, reference_kind)))
    return rows


def render_sft_record(instance: BenchmarkInstance, reference_kind: str,
                      pairing: str) -> SftRecord:
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing {pairing!r}")
    check_reference_kind(reference_kind)
    if pairing == "unilateral" and reference_kind != "absolute":
        raise PairingViolation("unilateral export only covers absolute queries")
    pathway = instance.pathway(reference_kind)
    return SftRecord(
        instruction=INSTRUCTION,
        input=instance.query(reference_kind),
        output=f"{pathway}\n{instance.answer.lower()}",
        pairing=pairing,
    )


def export_sft(instances: list[BenchmarkInstance], pairing: str) -> list[SftRecord]:
    """Cross pairing emits two records per instance, unilateral one."""
    records = []
    for inst in instances:
        records.append(render_sft_record(inst, "absolute", pairing))
        if pairing == "cross":
            records.append(render_sft_record(inst, "chronological", pairing))
    return records
