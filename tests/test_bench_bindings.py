"""The benchmark's layer bindings resolve against this source tree.

``perfbench/layers.py`` wraps named functions on named modules and classes.
A source change that drops or renames one of them would break every traced
benchmark pass; this catches it in the main suite.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    entries = layers.bindings()
    assert entries
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
        for owner, attr, name, _ in entries
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, missing
