"""Prompt rendering and instruction-tuning export.

Demonstration selection for the "semantic" styles uses IDF-weighted cosine
similarity over bag-of-words vectors: deterministic and dependency-free.
"""

from __future__ import annotations

import heapq
import math
import random
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import PairingViolation, PoolTooSmall
from .manifest import JsonRecord
from .querygen import BenchmarkInstance

STYLE_KINDS = ("zero_shot", "icl", "semantic_icl", "semantic_cot")
REFERENCE_KINDS = ("absolute", "chronological")
PAIRINGS = ("cross", "unilateral_absolute")

# Under cross pairing each reference kind is matched with its aligned rationale:
# absolute queries with the event-oriented pathway, chronological with the
# time-oriented one.
PATHWAY_FOR_REFERENCE = {"absolute": "event", "chronological": "time"}

DEFAULT_INSTRUCTION = (
    "Answer the temporal question. Reason about which fact holds immediately "
    "before or after the given reference, then state only the answer entity."
)


@dataclass(frozen=True)
class PromptStyle:
    kind: str = "icl"
    shots: int = 3

    def __post_init__(self):
        if self.kind not in STYLE_KINDS:
            raise ValueError(f"unknown prompt style {self.kind!r}")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.kind == "zero_shot":
            object.__setattr__(self, "shots", 0)


@dataclass(frozen=True)
class SftRecord(JsonRecord):
    instruction: str
    input: str
    output: str
    pairing: str


_TOKEN_RX = re.compile(r"[^\w\s]")


def _tokens(text: str) -> list[str]:
    return _TOKEN_RX.sub(" ", text.lower()).split()


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
        for doc in docs:
            self.df.update(doc.keys())
        self._weights: dict[tuple[int, int], float] = {}   # (n, df) -> idf
        self._tables: dict[int, dict[str, float]] = {}     # n -> idf of every term

    @classmethod
    def build(cls, texts: Sequence[str]) -> "IdfIndex":
        return cls([Counter(_tokens(text)) for text in texts])

    def _weight(self, n: int, df: int) -> float:
        key = (n, df)
        if key not in self._weights:
            self._weights[key] = math.log((1 + n) / (1 + df)) + 1.0
        return self._weights[key]

    def _df(self, term: str, skip: Sequence[int]) -> int:
        return self.df[term] - sum(term in self.docs[pos] for pos in skip)

    def _table(self, skip: Sequence[int]) -> dict[str, float]:
        """IDF of every term over the documents not in `skip`."""
        n = self.n_docs - len(skip)
        if n not in self._tables:
            self._tables[n] = {t: self._weight(n, c) for t, c in self.df.items()}
        table = self._tables[n]
        if skip:
            table = dict(table)
            for pos in skip:
                for term in self.docs[pos]:
                    table[term] = self._weight(n, self._df(term, skip))
        return table

    def vector(self, text: str, skip: Sequence[int] = ()) -> dict[str, float]:
        n = self.n_docs - len(skip)
        return {t: c * self._weight(n, self._df(t, skip))
                for t, c in Counter(_tokens(text)).items()}

    def rank(self, query: str, k: int, skip: Sequence[int] = ()) -> list[int]:
        """Positions of the k documents most cosine-similar to `query`.

        Documents at the positions in `skip` are left out of the ranking and
        of the IDF; ties go to the earlier position.
        """
        qvec = self.vector(query, skip)
        weights = self._table(skip)
        left_out = set(skip)
        na = math.sqrt(sum(v * v for v in qvec.values()))
        # query terms that some document has, in query order, with their IDF
        shared = [(t, v, weights[t]) for t, v in qvec.items() if t in weights]
        scored = []
        for pos, doc in enumerate(self.docs):
            if pos in left_out:
                continue
            dot = sum([v * (doc[t] * w) for t, v, w in shared if t in doc])
            if dot:
                nb = math.sqrt(sum([v * v for v in [c * weights[t] for t, c in doc.items()]]))
                scored.append((-(dot / (na * nb)), pos))
            else:
                scored.append((-0.0, pos))
        return [pos for _, pos in heapq.nsmallest(k, scored)]


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

    def __iter__(self):
        left_out = set(self.skip)
        return (inst for pos, inst in enumerate(self.pool.items) if pos not in left_out)

    def most_similar(self, query: str, k: int, reference_kind: str) -> list[BenchmarkInstance]:
        index = self.pool.index(reference_kind)
        return [self.pool.items[pos] for pos in index.rank(query, k, self.skip)]


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
        return random.Random(seed).sample(pool, style.shots)
    # semantic styles: IDF-weighted cosine, ties broken by pool order
    if not isinstance(pool, Candidates):
        pool = Candidates(DemoPool(pool), ())
    return pool.most_similar(query, style.shots, reference_kind)


def render_prompt(query: str, demos: list[BenchmarkInstance],
                  style: PromptStyle, reference_kind: str) -> str:
    """Question/answer demonstration blocks followed by the target query."""
    if len(demos) != style.shots:
        raise ValueError(f"expected {style.shots} demos, got {len(demos)}")
    if reference_kind not in REFERENCE_KINDS:
        raise ValueError(f"unknown reference kind {reference_kind!r}")
    blocks = []
    for demo in demos:
        lines = [f"Question: {demo.query(reference_kind)}"]
        if style.kind == "semantic_cot":
            lines.append(f"Reasoning: {demo.pathway(PATHWAY_FOR_REFERENCE[reference_kind])}")
        lines.append(f"Answer: {demo.answer}")
        blocks.append("\n".join(lines))
    blocks.append(f"Question: {query}\nAnswer:")
    return "\n\n".join(blocks)


def render_sft_record(instance: BenchmarkInstance, reference_kind: str,
                      pairing: str, instruction: str = DEFAULT_INSTRUCTION) -> SftRecord:
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing {pairing!r}")
    if reference_kind not in REFERENCE_KINDS:
        raise ValueError(f"unknown reference kind {reference_kind!r}")
    if pairing == "unilateral_absolute" and reference_kind != "absolute":
        raise PairingViolation("unilateral export only covers absolute queries")
    pathway = instance.pathway(PATHWAY_FOR_REFERENCE[reference_kind])
    return SftRecord(
        instruction=instruction,
        input=instance.query(reference_kind),
        output=f"{pathway}\n{instance.answer.lower()}",
        pairing=pairing,
    )


def export_sft(instances: list[BenchmarkInstance], pairing: str,
               instruction: str = DEFAULT_INSTRUCTION) -> list[SftRecord]:
    """Cross pairing emits two records per instance, unilateral one."""
    records = []
    for inst in instances:
        records.append(render_sft_record(inst, "absolute", pairing, instruction))
        if pairing == "cross":
            records.append(render_sft_record(inst, "chronological", pairing, instruction))
    return records
