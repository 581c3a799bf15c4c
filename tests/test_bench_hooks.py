"""The benchmark wraps library functions by module attribute; each one it
names must still be there.  ``bench/`` is read as source, not imported."""

import ast
import importlib
import inspect
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


def _note_hooks(path):
    """``{method name: parameter names after self}`` of the tracer's
    ``_note_<span>`` hooks in ``path``."""
    tree = ast.parse(path.read_text())
    tracer = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    return {node.name: [a.arg for a in node.args.posonlyargs + node.args.args][1:]
            for node in tracer.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_note_")}


TRACED = _literal(BENCH / "tracing.py", "TRACED")
HOOKS = [entry[:2] for entry in TRACED] + list(_literal(BENCH / "speed.py", "HOOKS"))
NOTES = _note_hooks(BENCH / "tracing.py")
# the traced functions whose calls a hook reads: the tracer calls
# ``_note_<span>`` with the wrapped function's arguments
NOTED = [(module, attr, "_note_" + span.replace(".", "_")) for module, attr, span in TRACED
         if "_note_" + span.replace(".", "_") in NOTES]


@pytest.mark.parametrize("module, attr", HOOKS)
def test_bench_hook_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_every_note_hook_reads_a_traced_function():
    assert sorted({note for _, _, note in NOTED}) == sorted(NOTES)


@pytest.mark.parametrize("module, attr, note", NOTED)
def test_note_hook_takes_the_traced_function_parameters(module, attr, note):
    fn = getattr(importlib.import_module(module), attr)
    assert list(inspect.signature(fn).parameters) == NOTES[note], (module, attr)
