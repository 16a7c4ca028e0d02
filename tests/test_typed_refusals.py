"""Every refusal csps raises is a typed ``CspsError``, never a bare builtin.

The sources under ``src/csps`` are read as syntax trees.  A ``raise
ValueError(...)`` or ``raise TypeError(...)`` fails the test, and so does
either of them handed as the error type to ``_whole_labels`` or
``_check_shape``; raise :class:`~csps.errors.InvalidArgument`, which is also
a ``ValueError``, instead.  The one exception is named in ``ALLOWED``.
``HOSTILE_CALLS`` checks the same contract by calling: arguments of the
wrong kind are refused as a ``CspsError``, not left to fail as an
``AttributeError`` or ``TypeError`` deep inside.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import csps
from csps import (
    Contrast,
    Dataset,
    build_cell_index,
    chained_propensity,
    covariate_mean_difference,
    empirical_csps,
    load_dataset,
    model_csps,
    run_algorithm,
    write_dataset_csv,
)
from csps.errors import CspsError, InvalidArgument

SOURCES = sorted(Path(csps.__file__).parent.glob("*.py"))
BARE = {"ValueError", "TypeError"}
CHECKS = {"_whole_labels", "_check_shape"}
# (file, enclosing scope, error): ScoreVector is made by its class methods,
# and calling the class is a programming error, not an input error
ALLOWED = {("estimation.py", "ScoreVector.__init__", "TypeError")}


class BareRefusals(ast.NodeVisitor):
    """Collects (scope, error name, line) of each bare refusal in a tree."""

    def __init__(self):
        self.scope, self.found = [], []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def _note(self, node, name):
        self.found.append((".".join(self.scope), name, node.lineno))

    def visit_Raise(self, node):
        error = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(error, ast.Name) and error.id in BARE:
            self._note(node, error.id)
        self.generic_visit(node)

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id in CHECKS:
            for arg in [*node.args, *(k.value for k in node.keywords)]:
                if isinstance(arg, ast.Name) and arg.id in BARE:
                    self._note(node, arg.id)
        self.generic_visit(node)


def bare_refusals(text: str) -> list:
    visitor = BareRefusals()
    visitor.visit(ast.parse(text))
    return visitor.found


def test_the_visitor_finds_each_kind_of_bare_refusal():
    text = (
        "def f(x):\n"
        "    raise ValueError('a')\n"
        "class C:\n"
        "    def g(self):\n"
        "        raise TypeError\n"
        "    def h(self, x):\n"
        "        _check_shape(x, (None,), ValueError, 'b')\n"
        "        _whole_labels(x, 0, 1, error=TypeError)\n"
        "        raise InvalidArgument('c') from None\n"
    )
    assert bare_refusals(text) == [
        ("f", "ValueError", 2), ("C.g", "TypeError", 5),
        ("C.h", "ValueError", 7), ("C.h", "TypeError", 8),
    ]


def test_no_module_refuses_with_a_bare_value_or_type_error():
    found = [
        (path.name, scope, name, line)
        for path in SOURCES
        for scope, name, line in bare_refusals(path.read_text(encoding="utf-8"))
    ]
    assert [f for f in found if f[:3] not in ALLOWED] == []
    # the allowed guard is still where the test names it
    assert {f[:3] for f in found} == ALLOWED


def small_dataset() -> Dataset:
    return Dataset(np.array([[0.0], [1.0], [0.0], [1.0]]), [1, 2, 3, 1])


CONTRAST = Contrast((1, -1, 0))
ROWS = [[0.0, 1], [1.0, 2]]  # a list of rows, not a Dataset
HOSTILE_CALLS = {
    "run_algorithm, no dataset": lambda: run_algorithm(None, [CONTRAST], [CONTRAST]),
    "run_algorithm, rows": lambda: run_algorithm(ROWS, [CONTRAST], []),
    "chained_propensity, no dataset": lambda: chained_propensity(None, [CONTRAST], CONTRAST),
    "build_cell_index, rows": lambda: build_cell_index(ROWS),
    "empirical_csps, no dataset": lambda: empirical_csps(None, CONTRAST),
    "model_csps, rows": lambda: model_csps(ROWS, CONTRAST),
    "covariate_mean_difference, no dataset": lambda: covariate_mean_difference(None, CONTRAST),
    "targets None": lambda: run_algorithm(small_dataset(), [CONTRAST], None),
    "one contrast as balancing": lambda: run_algorithm(small_dataset(), CONTRAST, [CONTRAST]),
    "one contrast as targets": lambda: run_algorithm(small_dataset(), [CONTRAST], CONTRAST),
    "chained_propensity, one contrast": (
        lambda: chained_propensity(small_dataset(), CONTRAST, CONTRAST)
    ),
    "load_dataset(None)": lambda: load_dataset(None),
    "load_dataset(-1)": lambda: load_dataset(-1),
    "load_dataset(True)": lambda: load_dataset(True),
    "load_dataset of an array": lambda: load_dataset(np.array([3, 4])),
    "write_dataset_csv to None": lambda: write_dataset_csv(small_dataset(), None),
    "write_dataset_csv to -1": lambda: write_dataset_csv(small_dataset(), -1),
    "write_dataset_csv of rows": lambda: write_dataset_csv(ROWS, "unwritten.csv"),
    "names a str": lambda: Dataset(np.zeros((2, 2)), [1, 2], covariate_names="ab"),
    "names bytes": lambda: Dataset(np.zeros((2, 2)), [1, 2], covariate_names=b"ab"),
    "names a mapping": lambda: Dataset(np.zeros((2, 1)), [1, 2], covariate_names={"a": 1}),
}


@pytest.mark.parametrize("call", HOSTILE_CALLS)
def test_arguments_of_the_wrong_kind_are_typed_refusals(call, tmp_path, monkeypatch):
    # each is also a ValueError, so a caller that caught the old builtin
    # ValueError, and the command line's exit code 2, still see it
    monkeypatch.chdir(tmp_path)
    with pytest.raises(CspsError) as caught:
        HOSTILE_CALLS[call]()
    assert isinstance(caught.value, InvalidArgument) and isinstance(caught.value, ValueError)
    assert list(tmp_path.iterdir()) == []
