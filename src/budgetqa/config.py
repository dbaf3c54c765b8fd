"""Runtime configuration: a JSON file with CLI-flag overrides.

Precedence is flag > file > default. Exactly one search backend must be
configured: a ``corpus`` file, searched offline, or a remote ``endpoint``,
an http:// or https:// URL with a host and no ``user:password@``. Every
referenced path must be a string that resolves at load time, the remote
fields ``token`` (unless absent), ``query_param``, ``results_key`` and
``summary_key`` must be strings, and the file must hold a JSON object. The
search depth and the snippet width are not settings: the models were
trained on ``search.DEFAULT_LIMIT`` snippets per query of
``search.DEFAULT_WINDOW`` words each side, so serving uses the same.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .control import Preferences
from .errors import ConfigError
from .search import OfflineProvider, SearchProvider, build_index, load_corpus


@dataclass
class Config:
    corpus: str | None = None
    endpoint: str | None = None
    token: str | None = None
    query_param: str = "q"
    results_key: str = "results"
    summary_key: str = "summary"
    k: float = 10.0
    c: float = 1.0
    seed: int = 0
    models_dir: str | None = None
    max_in_flight: int = 4

    def __post_init__(self):
        if problem := Preferences.error("k", self.k) or Preferences.error("c", self.c):
            raise ConfigError(problem)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, not {self.seed!r}")
        value = self.max_in_flight
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError(f"max_in_flight must be a positive integer, not {value!r}")
        if self.corpus and self.endpoint:
            raise ConfigError("configure exactly one backend (corpus or endpoint)")
        if self.endpoint:
            from .remote import parse_endpoint

            parse_endpoint(self.endpoint)
        for name in ("token", "query_param", "results_key", "summary_key"):
            if not isinstance(value := getattr(self, name), str) and (value is not None or name != "token"):
                raise ConfigError(f"{name} must be a JSON string, not {value!r}")
        for label, path in (("corpus", self.corpus), ("models_dir", self.models_dir)):
            if path is not None and not isinstance(path, str):
                raise ConfigError(f"{label} must be a path string, not {path!r}")
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
            return OfflineProvider(build_index(load_corpus(self.corpus)))
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
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, not {type(data).__name__}")
    data.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return Config(**data)
    except TypeError as exc:
        raise ConfigError(f"bad config field: {exc}") from exc
