"""Tokenization, token normalization, the shipped stop-word list and the
candidate n-grams of a text.

``ngrams`` keys each token once and lists the positions whose key may stand
at a gram's edge (non-empty and not a stop word). It then builds the 1-, 2-
and 3-grams in one loop each over those positions alone: a 2-gram also
needs the next position to be an edge, a 3-gram the one after that and a
non-empty key between them.
"""

from functools import lru_cache
from importlib import resources

from .errors import EmptyQuestion

# Stripped only at token boundaries, so punctuation inside numbers ("3.5")
# and possessives ("Ford's") survive. "%" and "$" are deliberately kept.
BOUNDARY_PUNCT = ".,;:!?\"'()[]{}<>`«»“”‘’–—"

AUXILIARIES = frozenset({"is", "was", "did", "does", "do", "are", "were"})

Gram = tuple[tuple[str, ...], tuple[str, ...]]  # (keys, surface form)


def word_tokens(text: str) -> list[str]:
    """Whitespace split, then strip boundary punctuation from each piece.

    Case is preserved (capitalization is a model feature downstream).
    Pieces that are pure punctuation are dropped.
    """
    out = []
    for raw in text.split():
        token = raw.strip(BOUNDARY_PUNCT)
        if token:
            out.append(token)
    return out


def tokenize(text: str) -> list[str]:
    """Tokenize a question. Raises EmptyQuestion when no tokens result."""
    tokens = word_tokens(text)
    if not tokens:
        raise EmptyQuestion("question contains no word tokens")
    return tokens


@lru_cache(maxsize=1 << 16)  # a pure function over a small vocabulary
def token_key(token: str) -> str:
    """Case-folded matching form of a token; trailing possessive removed."""
    key = token.casefold()
    if key.endswith("'s") or key.endswith("’s"):
        key = key[:-2]
    return key.strip(BOUNDARY_PUNCT)


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The shipped stop-word list (lowercase, one word per line)."""
    data = resources.files("budgetqa").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(line.strip() for line in data.splitlines() if line.strip())


def ngrams(text: str) -> tuple[Gram, ...]:
    """Every candidate 1/2/3-gram of a text as (keys, surface form) pairs,
    n = 1, 2, 3 outer and position inner.

    A gram is a candidate when both edge keys are non-empty and not stop
    words, and a 3-gram's middle key is non-empty. No question's tokens are
    excluded here: that is up to the caller. When a gram's surface form
    equals its keys, the keys tuple stands in for the form.
    """
    stop = default_stopwords()
    words = word_tokens(text)
    keys = list(map(token_key, words))
    edges = [i for i, key in enumerate(keys) if key and key not in stop]
    is_edge = set(edges)  # an n-gram starts at edge i and ends at edge i + n - 1
    out = []
    append = out.append
    for i in edges:
        key, word = keys[i], words[i]
        gram_keys = (key,)
        append((gram_keys, gram_keys if word == key else (word,)))
    for i in edges:
        if i + 1 in is_edge:
            gram_keys = (keys[i], keys[i + 1])
            form = (words[i], words[i + 1])
            append((gram_keys, gram_keys if form == gram_keys else form))
    for i in edges:
        if i + 2 in is_edge and keys[i + 1]:
            gram_keys = (keys[i], keys[i + 1], keys[i + 2])
            form = (words[i], words[i + 1], words[i + 2])
            append((gram_keys, gram_keys if form == gram_keys else form))
    return tuple(out)
