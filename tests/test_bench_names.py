"""The names the benchmark traces and patches still resolve.

``bench/spans.py`` wraps every function in ``TRACED`` in the module that
defines it, patches ``cli._map_cells``, and wraps the ``SYSTEM_MAPS`` of
each system ``make_system`` builds.  A rename or deletion of one of them
breaks the benchmark long before its own tests run; this catches it in the
fast suite.  The test only reads ``bench/``.
"""
import importlib
import types
from pathlib import Path

import pytest

from shadowkit import cli
from shadowkit.seqcore import Window
from shadowkit.systems import DiffeoSystem, make_system

ROOT = Path(__file__).resolve().parent.parent


def _bench_spans():
    # executed from its source, so that no byte-code lands under bench/
    path = ROOT / "bench" / "spans.py"
    module = types.ModuleType("bench_spans")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


SPANS = _bench_spans()
TRACED = [(mod, fn) for mod, fns in SPANS.TRACED.items() for fn in fns]


@pytest.mark.parametrize("mod, fn", TRACED,
                         ids=[f"{mod}.{fn}" for mod, fn in TRACED])
def test_traced_function_resolves(mod, fn):
    module = importlib.import_module(f"shadowkit.{mod}")
    assert callable(getattr(module, fn))


def test_sweep_cell_mapper_resolves():
    assert callable(cli._map_cells)


@pytest.mark.parametrize("name", ["weighted_shift_linear", "ms_product",
                                  "conjugated:weighted_shift_linear"])
def test_system_maps_resolve_on_a_built_system(name):
    built = make_system(name, Window(-12, 12))
    assert isinstance(built, DiffeoSystem)
    for attr in SPANS.SYSTEM_MAPS:
        assert callable(getattr(built, attr))
