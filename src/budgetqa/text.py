"""Tokenization, token normalization and the shipped stop-word list."""

from functools import lru_cache
from importlib import resources

from .errors import EmptyQuestion

# Stripped only at token boundaries, so punctuation inside numbers ("3.5")
# and possessives ("Ford's") survive. "%" and "$" are deliberately kept.
BOUNDARY_PUNCT = ".,;:!?\"'()[]{}<>`«»“”‘’–—"

AUXILIARIES = frozenset({"is", "was", "did", "does", "do", "are", "were"})


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


def is_stopword(token: str, stop: frozenset[str] | None = None) -> bool:
    # Matching is case-insensitive; whether the original system lowercased
    # first is unrecorded, so we normalize here.
    return token_key(token) in (stop if stop is not None else default_stopwords())
