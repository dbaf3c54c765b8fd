"""Exception types shared across the package."""


class BudgetQAError(Exception):
    """Base class for all package errors."""


class EmptyQuestion(BudgetQAError):
    """Raised when a question is empty or contains no word tokens."""


class WrongRewriteKind(BudgetQAError):
    """Raised when an operation receives a rewrite of the wrong kind."""


class DuplicateDocument(BudgetQAError):
    """Raised when a corpus contains two documents with the same id."""


class EmptyCorpus(BudgetQAError):
    """Raised when an index is built from an empty corpus."""


class RetryableError(BudgetQAError):
    """A transient backend failure that persisted through all retry attempts."""


class ProviderError(BudgetQAError):
    """The search backend returned a malformed or unusable response."""


class NoTrainingData(BudgetQAError):
    """Raised when a model is trained on an empty case list."""


class SchemaMismatch(BudgetQAError):
    """Training cases (or a prediction input) disagree on the feature schema."""


class MissingFeature(BudgetQAError):
    """A feature tested by a tree is absent from the supplied feature vector."""


class IncompleteEnsemble(BudgetQAError):
    """A named tree has no training cases, or a model set being saved
    lacks a tree that a models file holds."""


class DatasetParseError(BudgetQAError):
    """A dataset file line could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class ConfigError(BudgetQAError):
    """Invalid or unresolvable configuration."""
