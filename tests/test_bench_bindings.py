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


def test_pass_contexts_patch_the_driver_and_restore_it(monkeypatch, tmp_path):
    # The mlp_matching pass wraps amoo.driver.solve_bilinear_pu and the
    # analytic_cli pass wraps amoo.driver.run; a name missing from the driver
    # fails here with the AttributeError that would end every pass.
    import amoo.driver

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    names = ("solve_bilinear_pu", "run")
    original = {name: getattr(amoo.driver, name) for name in names}
    patched = set()
    for name, workload in workloads.WORKLOADS.items():
        with workload(0, tmp_path / name).pass_context():
            patched |= {n for n in names if getattr(amoo.driver, n) is not original[n]}
        assert {n: getattr(amoo.driver, n) for n in names} == original, name
    assert patched == set(names)
