"""Test doubles shared by several test modules."""


class StubGrammarScorer:
    """Returns a fixed pair; used as a wiring check."""

    def __init__(self, secondary: int = 0, sgm: float = 0.5):
        self.pair = (secondary, sgm)

    def score(self, phrase: str) -> tuple[int, float]:
        return self.pair
