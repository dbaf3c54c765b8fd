"""Runtime configuration: a JSON file with CLI-flag overrides.

Precedence is flag > file > default. Exactly one search backend must be
configured: a ``corpus`` file, searched offline with a snippet ``window``
of that many words each side, or a remote ``endpoint``. Every referenced
path must resolve at load time, and the file must hold a JSON object.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .control import Preferences
from .errors import ConfigError
from .search import DEFAULT_LIMIT, DEFAULT_WINDOW, OfflineProvider, SearchProvider, build_index, load_corpus


@dataclass
class Config:
    corpus: str | None = None
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
        for name in ("k", "c"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
                raise ConfigError(f"{name} must be a positive number, not {value!r}")
        for name in ("window", "limit", "max_in_flight"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, not {value!r}")
        if self.corpus and self.endpoint:
            raise ConfigError("configure exactly one backend (corpus or endpoint)")
        for label, path in (("corpus", self.corpus), ("models_dir", self.models_dir)):
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
        if self.corpus:
            return OfflineProvider(build_index(load_corpus(self.corpus), window=self.window))
        raise ConfigError("no backend configured: set corpus or endpoint")


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
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, not {type(data).__name__}")
    data.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return Config(**data)
    except TypeError as exc:
        raise ConfigError(f"bad config field: {exc}") from exc
