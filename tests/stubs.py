"""Test doubles shared by several test modules."""


class StubGrammarScorer:
    """Returns a fixed triple; used as a wiring check."""

    def __init__(self, primary: int = 1, secondary: int = 0, sgm: float = 0.5):
        self.triple = (primary, secondary, sgm)

    def score(self, phrase: str) -> tuple[int, int, float]:
        return self.triple
