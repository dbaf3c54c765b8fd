"""Runtime configuration: a JSON file with CLI-flag overrides.

Precedence is flag > file > default. Exactly one search backend must be
configured and every referenced path must resolve at load time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .control import Preferences
from .errors import ConfigError
from .search import DEFAULT_LIMIT, DEFAULT_WINDOW, OfflineProvider, SearchProvider, build_index, load_corpus, load_index


@dataclass
class Config:
    corpus_path: str | None = None
    index_path: str | None = None
    endpoint: str | None = None
    token: str | None = None
    query_param: str = "q"
    results_key: str = "results"
    summary_key: str = "summary"
    window: int = DEFAULT_WINDOW
    limit: int = DEFAULT_LIMIT
    k: float = 10.0
    c: float = 1.0
    seed: int = 0
    models_dir: str | None = None
    max_in_flight: int = 4

    def __post_init__(self):
        backends = sum(1 for b in (self.corpus_path, self.index_path, self.endpoint) if b)
        if backends > 1:
            raise ConfigError("configure exactly one backend (corpus, index or endpoint)")
        for label, path in (
            ("corpus", self.corpus_path),
            ("index", self.index_path),
            ("models_dir", self.models_dir),
        ):
            if path and not os.path.exists(path):
                raise ConfigError(f"{label} path does not exist: {path}")

    @property
    def preferences(self) -> Preferences:
        return Preferences(k=self.k, c=self.c)

    def make_provider(self) -> SearchProvider:
        if self.endpoint:
            from .remote import RemoteProvider

            return RemoteProvider(
                self.endpoint,
                query_param=self.query_param,
                results_key=self.results_key,
                summary_key=self.summary_key,
                token=self.token,
                max_in_flight=self.max_in_flight,
            )
        if self.index_path:
            return OfflineProvider(load_index(self.index_path))
        if self.corpus_path:
            return OfflineProvider(build_index(load_corpus(self.corpus_path), window=self.window))
        raise ConfigError("no backend configured: set corpus, index or endpoint")


_FIELD_ALIASES = {
    "corpus": "corpus_path",
    "index": "index_path",
}


def load_config(path: str | None, **overrides) -> Config:
    """Load a config file and apply non-None keyword overrides on top."""
    data: dict = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    kwargs: dict = {}
    for key, value in data.items():
        kwargs[_FIELD_ALIASES.get(key, key)] = value
    for key, value in overrides.items():
        if value is not None:
            kwargs[_FIELD_ALIASES.get(key, key)] = value
    try:
        return Config(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config field: {exc}") from exc
