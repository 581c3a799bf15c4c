"""The benchmark wraps library functions by module attribute; each one it
names must still be there.  ``bench/`` is read as source, not imported."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _literal(path, name):
    """The literal value assigned to ``name`` at the top of ``path``."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        targets = getattr(node, "targets", ())
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {path}")


HOOKS = ([entry[:2] for entry in _literal(BENCH / "tracing.py", "TRACED")]
         + list(_literal(BENCH / "speed.py", "HOOKS")))


@pytest.mark.parametrize("module, attr", HOOKS)
def test_bench_hook_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
