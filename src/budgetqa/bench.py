"""Synthetic benchmark generator: templated facts expanded into a
distractor-laden corpus plus question/answer-pattern pairs.

Each fact is one question about a unique coined entity. The redundancy knob
controls how many paraphrase documents state the answer, standing in for
the redundancy of a large corpus: some paraphrases match exact-phrase
rewrites, one states the fact in reported speech so the conjunctive rewrite
(which includes the question word) can hit it. A fraction of facts are
sparse (only the reported-speech document exists) or empty (no answer in
the corpus at all), and "tease" documents repeat the question's vocabulary
without the answer so the conjunctive rewrite sees noise. Every question
type's wording lives in one ``Template`` record of ``TEMPLATES``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources

from .evaluation import QAItem
from .rewrite import QuestionType
from .search import Document, load_corpus


def lincoln_corpus() -> list[Document]:
    """The bundled 12-document demo corpus for the worked example."""
    with resources.as_file(resources.files("budgetqa").joinpath("data/lincoln_corpus.jsonl")) as path:
        return load_corpus(str(path))

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


@dataclass(frozen=True)
class Template:
    """One question type's wording, as ``str.format`` templates over the
    fields ``_fields`` names for a fact.

    ``paraphrases`` is ordered so a redundancy prefix always mixes phrasal
    and conjunctive coverage. Answer tokens are kept flanked by stop words
    or question words so tiling cannot weld junk onto them, and the
    conjunctive paraphrases keep the answer within the snippet window that
    is centered on the question word. ``sparse`` states the answer in
    reported speech with the phrase order broken, so only the conjunctive
    rewrite (all question words ANDed) can reach it. ``tease`` repeats the
    question's vocabulary without the answer, as conjunctive-rewrite noise;
    it starts with a stop word so the junk it contributes stays
    uncapitalized and stop-edged, which keeps mined noise weak.
    """

    question: str
    pattern: str
    paraphrases: tuple[str, ...]
    sparse: str
    tease: str


# A deep fact keeps only this paraphrase, which only a mid-ranked rewrite reaches.
_PASSIVE = "{O} was {v} by {a}."

_WHEN_WHERE = Template(
    question="{Wh} was {o} {v}?",
    pattern=r"(?:in\s+)?{a}",
    paraphrases=(
        "{O} was {v} in {a}.",
        "Some asked {wh} {o} was {v}, and it was in {a}.",
        "It was in {a} that {o} was {v}.",
        "People remember that {o} was {v} in {a}.",
    ),
    sparse="Some asked {wh} it was {v}, and heard it was in {a}, or so people near {o} said.",
    tease="Few could say {wh} it was {v}, but {o} kept its secret.",
)

#: Every question type's wording; facts cycle through the types in this order.
TEMPLATES: dict[QuestionType, Template] = {
    QuestionType.WHO: Template(
        question="Who {v} {o}?",
        pattern=r"(?:{first}\s+)?{last}",
        paraphrases=(
            "{a} {v} {o}.",
            _PASSIVE,
            "Some asked who {v} {o}, and it was {a}.",
            "It was {a} that {v} {o}.",
            "Many people say that {o} was {v} by {a}.",
        ),
        sparse="Some asked who {v} it, and heard it was {a}, or so people near {o} said.",
        tease="Few could say who {v} it, but {o} kept its secret.",
    ),
    QuestionType.WHEN: _WHEN_WHERE,
    QuestionType.WHERE: _WHEN_WHERE,
    QuestionType.HOW_MANY: Template(
        question="How many {u} are in {o}?",
        pattern=r"{a}(?:\s+{u})?",
        paraphrases=(
            "Many {u} are in {o}, and there are {a} of them.",
            "People asked how many {u} are in {o}: there are {a} of them.",
            "Most of the {u} are in {o}, and there are {a} of them in all.",
            "The {u} are in {o}, and people say there are {a} of them.",
        ),
        sparse=(
            "Some asked how many {u} it had, and heard there are {a} of them, "
            "or so people near {o} said in the end."
        ),
        tease="Few could say how many {u} are around, but {o} kept its secret in the end.",
    ),
    QuestionType.WHAT: Template(
        question="What was {o} made from?",
        pattern="{a}",
        paraphrases=(
            "{O} was made from {a}.",
            "Some asked what {o} was made from, and it was {a}.",
            "It was {a} that {o} was made from.",
            "People say that {o} was made from {a}.",
        ),
        sparse="Some asked what it was made from, and heard it was {a}, or so people near {o} said.",
        tease="Few could say what it was made from, but {o} kept its secret.",
    ),
}

#: The most paraphrase documents a fact can have.
MAX_REDUNDANCY = max(len(t.paraphrases) for t in TEMPLATES.values())


def _fields(fact: Fact) -> dict[str, str]:
    """What a template can name: {o} the fact's object, {O} the object
    capitalized, {v} its verb, {a} its answer, {first} and {last} the
    answer's leading words and last word, {u} its unit, and {wh} and {Wh}
    the question word. Built once per fact, for all of its templates."""
    first, _, last = fact.answer.rpartition(" ")
    wh = fact.qtype.value
    return {
        "o": fact.obj, "O": fact.obj.capitalize(), "v": fact.verb, "a": fact.answer,
        "first": first, "last": last, "u": fact.unit, "wh": wh, "Wh": wh.capitalize(),
    }


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

    redundancy: answer paraphrase documents per normal fact, from 1 to
        ``MAX_REDUNDANCY``; a type with a shorter pool gets all of its own.
    distractors: inert documents about unused entities.
    tease_rate: chance a fact also gets a no-answer vocabulary document.
    sparse_rate: chance a fact keeps only its reported-speech document.
    empty_rate: chance a fact has no answer document at all.
    deep_rate: chance a WHO fact keeps only its passive-voice document,
        which only a mid-ranked rewrite reaches, so extra budget pays off.
    """
    if problem := size_error(num_questions, distractors):
        raise ValueError(problem)
    if not 1 <= redundancy <= MAX_REDUNDANCY:
        raise ValueError(f"redundancy must be between 1 and {MAX_REDUNDANCY}, got {redundancy}")
    rng = random.Random(seed)
    pairs = [(adj, noun) for adj in ADJECTIVES for noun in NOUNS]
    rng.shuffle(pairs)
    person_pairs = [(f, l) for f in FIRST_NAMES for l in LAST_NAMES]
    rng.shuffle(person_pairs)

    cycle = list(TEMPLATES)
    facts: list[Fact] = []
    for i in range(num_questions):
        qtype = cycle[i % len(cycle)]
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
        deep = qtype is QuestionType.WHO and not (empty or sparse) and rng.random() < deep_rate
        facts.append(Fact(qtype, obj, verb, answer, unit, sparse=sparse, empty=empty, deep=deep))

    items: list[QAItem] = []
    texts: list[str] = []
    for fact in facts:
        template, fields = TEMPLATES[fact.qtype], _fields(fact)
        items.append(QAItem.make(template.question.format_map(fields), [template.pattern.format_map(fields)]))
        if fact.empty:
            docs: tuple[str, ...] = ()
        elif fact.sparse:
            docs = (template.sparse,)
        elif fact.deep:
            docs = (_PASSIVE,)
        else:
            docs = template.paraphrases[:redundancy]
        if rng.random() < tease_rate:
            docs += (template.tease,)
        texts += [text.format_map(fields) for text in docs]
    for adj, noun in pairs[num_questions : num_questions + distractors]:
        texts.append(f"The {adj} {noun} was a quiet place where people spent their days.")
    corpus = [Document(id=f"d{i:05d}", text=text) for i, text in enumerate(texts)]
    rng.shuffle(corpus)  # interleave so doc order carries no signal
    return Benchmark(corpus=corpus, items=items, facts=facts)
