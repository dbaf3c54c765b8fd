"""Test doubles shared by several test modules."""

from budgetqa.models import ModelSet


class StubGrammarScorer:
    """Returns a fixed pair; used as a wiring check."""

    def __init__(self, secondary: int = 0, sgm: float = 0.5):
        self.pair = (secondary, sgm)

    def score(self, phrase: str) -> tuple[int, float]:
        return self.pair


def model_set(conjunctive, phrasal, budgets=None, **kwargs):
    """A ``ModelSet`` of the two quality trees and, if given, budget trees
    keyed by n."""
    trees = {("conjunctive", 1): conjunctive, ("phrasal", 1): phrasal}
    trees.update((("budget", n), tree) for n, tree in (budgets or {}).items())
    return ModelSet(trees, **kwargs)
