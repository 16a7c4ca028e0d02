"""Every refusal csps raises is a typed ``CspsError``, never a bare builtin.

The sources under ``src/csps`` are read as syntax trees.  A ``raise
ValueError(...)`` or ``raise TypeError(...)`` fails the test, and so does
either of them handed as the error type to ``_whole_labels`` or
``_check_shape``; raise :class:`~csps.errors.InvalidArgument`, which is also
a ``ValueError``, instead.  The one exception is named in ``ALLOWED``.
"""

import ast
from pathlib import Path

import csps

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
