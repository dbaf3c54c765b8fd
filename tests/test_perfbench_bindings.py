"""The traced benchmark run rebinds every name that ``perfbench/spans.py``
lists in ``TARGETS``, so each must stay bound where it is listed."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import TARGETS, resolve_owner  # noqa: E402


def test_every_span_target_resolves():
    # Looked up exactly as Tracer.install() does, so a rename or a dropped
    # import fails here instead of in the traced benchmark run.
    unbound = [(owner, attr) for owner, attr, _ in TARGETS if attr not in resolve_owner(owner).__dict__]
    assert unbound == []
