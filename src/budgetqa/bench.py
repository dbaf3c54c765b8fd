"""Synthetic benchmark generator: templated facts expanded into a
distractor-laden corpus plus question/answer-pattern pairs.

Each fact is one question about a unique coined entity. The redundancy knob
controls how many paraphrase documents state the answer, standing in for
the redundancy of a large corpus: some paraphrases match exact-phrase
rewrites, one states the fact in reported speech so the conjunctive rewrite
(which includes the question word) can hit it. A fraction of facts are
sparse (only the reported-speech document exists) or empty (no answer in
the corpus at all), and "tease" documents repeat the question's vocabulary
without the answer so the conjunctive rewrite sees noise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources

from .evaluation import QAItem
from .rewrite import QuestionType
from .search import Document


def lincoln_corpus() -> list[Document]:
    """The bundled 12-document demo corpus for the worked example."""
    data = resources.files("budgetqa").joinpath("data/lincoln_corpus.jsonl").read_text("utf-8")
    return [Document(**json.loads(line)) for line in data.splitlines() if line.strip()]

ADJECTIVES = [
    "crystal", "silver", "copper", "marble", "amber", "ivory", "scarlet",
    "golden", "emerald", "obsidian", "cobalt", "crimson", "velvet", "granite",
    "willow", "cedar", "maple", "onyx", "azure", "umber", "sable", "quartz",
    "bronze", "coral",
]
NOUNS = [
    "bridge", "tower", "archive", "fountain", "gallery", "harbor", "garden",
    "library", "mill", "theater", "chapel", "market", "lighthouse", "academy",
    "orchard", "observatory", "aqueduct", "pavilion", "granary", "windmill",
]
VERBS = [
    "designed", "painted", "restored", "founded", "commissioned", "decorated",
    "repaired", "completed", "sketched", "planned",
]
FIRST_NAMES = [
    "Maren", "Doran", "Selia", "Torvin", "Elara", "Bastian", "Nerida",
    "Caldus", "Ophira", "Rennick", "Sylra", "Vondar", "Thessa", "Quillon",
    "Halvar", "Imara", "Jorveth", "Lirona",
]
LAST_NAMES = [
    "Velt", "Ondra", "Maris", "Korrin", "Deylan", "Farrow", "Grennel",
    "Holt", "Ilvers", "Jassen", "Krayle", "Lunden", "Morvane", "Norrel",
    "Ostrey", "Pellam", "Quade", "Rostin",
]
PLACES = [
    "Varnis", "Eldoria", "Tresk", "Ombrelle", "Quillmark", "Sarnath",
    "Vintermoor", "Caldreth", "Ashpool", "Brundle", "Fennwick", "Galloway",
    "Harrowgate", "Istmere", "Jorund", "Kelsworth",
]
UNITS = [
    "steps", "arches", "lanterns", "benches", "statues", "windows",
    "columns", "murals", "bells", "alcoves",
]
MATERIALS = [
    "iron", "glass", "copper", "marble", "oak", "granite", "silver",
    "bronze", "limestone", "cedar",
]

_QTYPE_CYCLE = (
    QuestionType.WHO,
    QuestionType.WHEN,
    QuestionType.WHERE,
    QuestionType.HOW_MANY,
    QuestionType.WHAT,
)


@dataclass(frozen=True)
class Fact:
    qtype: QuestionType
    obj: str  # "the crystal bridge"
    verb: str
    answer: str
    unit: str = ""
    sparse: bool = False
    empty: bool = False
    deep: bool = False  # answer reachable only via the passive rewrite


@dataclass
class Benchmark:
    corpus: list[Document]
    items: list[QAItem]
    facts: list[Fact]


def _cap(phrase: str) -> str:
    return phrase[0].upper() + phrase[1:]


def _question(fact: Fact) -> str:
    if fact.qtype is QuestionType.WHO:
        return f"Who {fact.verb} {fact.obj}?"
    if fact.qtype is QuestionType.WHEN:
        return f"When was {fact.obj} {fact.verb}?"
    if fact.qtype is QuestionType.WHERE:
        return f"Where was {fact.obj} {fact.verb}?"
    if fact.qtype is QuestionType.HOW_MANY:
        return f"How many {fact.unit} are in {fact.obj}?"
    return f"What was {fact.obj} made from?"


def _patterns(fact: Fact) -> list[str]:
    if fact.qtype is QuestionType.WHO:
        first, last = fact.answer.split()
        return [rf"(?:{first}\s+)?{last}"]
    if fact.qtype is QuestionType.WHEN:
        return [rf"(?:in\s+)?{fact.answer}"]
    if fact.qtype is QuestionType.WHERE:
        return [rf"(?:in\s+)?{fact.answer}"]
    if fact.qtype is QuestionType.HOW_MANY:
        return [rf"{fact.answer}(?:\s+{fact.unit})?"]
    return [fact.answer]


def _answer_docs(fact: Fact) -> list[str]:
    """Paraphrase pool, ordered so a redundancy prefix always mixes phrasal
    and conjunctive coverage. Answer tokens are kept flanked by stop words
    or question words so tiling cannot weld junk onto them, and the
    conjunctive paraphrases keep the answer within the snippet window that
    is centered on the question word."""
    o, oc, v, a = fact.obj, _cap(fact.obj), fact.verb, fact.answer
    if fact.qtype is QuestionType.WHO:
        return [
            f"{a} {v} {o}.",
            f"{oc} was {v} by {a}.",
            f"Some asked who {v} {o}, and it was {a}.",
            f"It was {a} that {v} {o}.",
            f"Many people say that {o} was {v} by {a}.",
        ]
    if fact.qtype is QuestionType.WHEN:
        return [
            f"{oc} was {v} in {a}.",
            f"Some asked when {o} was {v}, and it was in {a}.",
            f"It was in {a} that {o} was {v}.",
            f"People remember that {o} was {v} in {a}.",
        ]
    if fact.qtype is QuestionType.WHERE:
        return [
            f"{oc} was {v} in {a}.",
            f"Some asked where {o} was {v}, and it was in {a}.",
            f"It was in {a} that {o} was {v}.",
            f"People remember that {o} was {v} in {a}.",
        ]
    if fact.qtype is QuestionType.HOW_MANY:
        u = fact.unit
        return [
            f"Many {u} are in {o}, and there are {a} of them.",
            f"People asked how many {u} are in {o}: there are {a} of them.",
            f"Most of the {u} are in {o}, and there are {a} of them in all.",
            f"The {u} are in {o}, and people say there are {a} of them.",
        ]
    return [
        f"{oc} was made from {a}.",
        f"Some asked what {o} was made from, and it was {a}.",
        f"It was {a} that {o} was made from.",
        f"People say that {o} was made from {a}.",
    ]


def _sparse_doc(fact: Fact) -> str:
    """Answer stated in reported speech with the phrase order broken, so
    only the conjunctive rewrite (all question words ANDed) can reach it."""
    o, v, a = fact.obj, fact.verb, fact.answer
    if fact.qtype is QuestionType.WHO:
        return f"Some asked who {v} it, and heard it was {a}, or so people near {o} said."
    if fact.qtype is QuestionType.WHEN:
        return f"Some asked when it was {v}, and heard it was in {a}, or so people near {o} said."
    if fact.qtype is QuestionType.WHERE:
        return f"Some asked where it was {v}, and heard it was in {a}, or so people near {o} said."
    if fact.qtype is QuestionType.HOW_MANY:
        return (
            f"Some asked how many {fact.unit} it had, and heard there are {a} of them, "
            f"or so people near {o} said in the end."
        )
    return f"Some asked what it was made from, and heard it was {a}, or so people near {o} said."


def _tease_doc(fact: Fact) -> str:
    """Question vocabulary without the answer; conjunctive-rewrite noise.
    Starts with a stop word so the junk it contributes stays uncapitalized
    and stop-edged, which keeps mined noise weak."""
    o, v = fact.obj, fact.verb
    if fact.qtype is QuestionType.WHO:
        return f"Few could say who {v} it, but {o} kept its secret."
    if fact.qtype is QuestionType.WHEN:
        return f"Few could say when it was {v}, but {o} kept its secret."
    if fact.qtype is QuestionType.WHERE:
        return f"Few could say where it was {v}, but {o} kept its secret."
    if fact.qtype is QuestionType.HOW_MANY:
        return (
            f"Few could say how many {fact.unit} are around, "
            f"but {o} kept its secret in the end."
        )
    return f"Few could say what it was made from, but {o} kept its secret."


def size_error(num_questions: int, distractors: int) -> str | None:
    """Why a benchmark of this size cannot be built (each fact and each
    distractor takes its own adjective-noun entity pair), or None."""
    pairs = len(ADJECTIVES) * len(NOUNS)
    if num_questions + distractors > pairs:
        return f"questions + distractors must be at most {pairs} entity pairs, got {num_questions} + {distractors}"
    return None


def generate_benchmark(
    num_questions: int,
    *,
    redundancy: int = 3,
    distractors: int = 40,
    tease_rate: float = 0.3,
    sparse_rate: float = 0.10,
    empty_rate: float = 0.05,
    deep_rate: float = 0.25,
    seed: int = 0,
) -> Benchmark:
    """Build a corpus and QA items for ``num_questions`` facts.

    redundancy: answer paraphrase documents per normal fact.
    distractors: inert documents about unused entities.
    tease_rate: chance a fact also gets a no-answer vocabulary document.
    sparse_rate: chance a fact keeps only its reported-speech document.
    empty_rate: chance a fact has no answer document at all.
    deep_rate: chance a WHO fact keeps only its passive-voice document,
        which only a mid-ranked rewrite reaches, so extra budget pays off.
    """
    if problem := size_error(num_questions, distractors):
        raise ValueError(problem)
    rng = random.Random(seed)
    pairs = [(adj, noun) for adj in ADJECTIVES for noun in NOUNS]
    rng.shuffle(pairs)
    person_pairs = [(f, l) for f in FIRST_NAMES for l in LAST_NAMES]
    rng.shuffle(person_pairs)

    facts: list[Fact] = []
    for i in range(num_questions):
        qtype = _QTYPE_CYCLE[i % len(_QTYPE_CYCLE)]
        adj, noun = pairs[i]
        obj = f"the {adj} {noun}"
        verb = rng.choice(VERBS)
        unit = ""
        if qtype is QuestionType.WHO:
            first, last = person_pairs[i % len(person_pairs)]
            answer = f"{first} {last}"
        elif qtype is QuestionType.WHEN:
            answer = str(rng.randint(1800, 1999))
        elif qtype is QuestionType.WHERE:
            answer = rng.choice(PLACES)
        elif qtype is QuestionType.HOW_MANY:
            unit = rng.choice(UNITS)
            answer = str(rng.randint(3, 900))
        else:
            # the material must not echo the object's adjective, or the
            # answer would be excluded as a question token
            answer = rng.choice([m for m in MATERIALS if m != adj])
        roll = rng.random()
        empty = roll < empty_rate
        sparse = empty_rate <= roll < empty_rate + sparse_rate
        deep = (
            qtype is QuestionType.WHO
            and not (empty or sparse)
            and rng.random() < deep_rate
        )
        facts.append(
            Fact(
                qtype=qtype,
                obj=obj,
                verb=verb,
                answer=answer,
                unit=unit,
                empty=empty,
                sparse=sparse,
                deep=deep,
            )
        )

    corpus: list[Document] = []

    def add(text: str) -> None:
        corpus.append(Document(id=f"d{len(corpus):05d}", text=text))

    items = []
    for fact in facts:
        items.append(QAItem.make(_question(fact), _patterns(fact)))
        if fact.empty:
            docs: list[str] = []
        elif fact.sparse:
            docs = [_sparse_doc(fact)]
        elif fact.deep:
            docs = [f"{_cap(fact.obj)} was {fact.verb} by {fact.answer}."]
        else:
            pool = _answer_docs(fact)
            docs = pool[: max(1, min(redundancy, len(pool)))]
        for text in docs:
            add(text)
        if rng.random() < tease_rate:
            add(_tease_doc(fact))

    for j in range(distractors):
        adj, noun = pairs[num_questions + j]
        add(f"The {adj} {noun} was a quiet place where people spent their days.")

    rng.shuffle(corpus)  # interleave so doc order carries no signal
    return Benchmark(corpus=corpus, items=items, facts=facts)
