"""The traced benchmark wraps platoonsim callables by name; every name it
patches must resolve, and uninstalling must restore the originals."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_hook_points_resolve_and_restore():
    instrument, tracer = _load("instrument"), _load("tracer")
    tr = tracer.Tracer()
    try:
        instrument.install(tr)
        patches = list(tr._patches)
        for owner, attr, original, _ in patches:
            wrapper = getattr(owner, attr)
            assert wrapper.__traced__ and wrapper.__wrapped__ is original
    finally:
        tr.uninstall()
    assert len(patches) > 20
    sites = {(getattr(owner, "__name__", None), attr)
             for owner, attr, _, _ in patches}
    for module in ("simulation", "coordination", "baselines"):
        assert (f"platoonsim.{module}", "path_cell_spans") in sites
    for owner, attr, original, _ in patches:
        assert getattr(owner, attr) is original, (owner, attr)
        assert not getattr(original, "__traced__", False)
