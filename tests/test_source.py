"""Static checks on the package, test and tool sources."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "gemtrisect"


def _unused_imports(tree):
    """Names a module imports and never reads, in source order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.partition(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno)
                         for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported
                  if name not in read)


def _source_id(path):
    """A package module by its name, a test or tool by its directory too."""
    if path.parent == PACKAGE:
        return path.name
    return "%s/%s" % (path.parent.name, path.name)


@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("tools/*.py")),
    ids=_source_id)
def test_no_unused_imports(path):
    # __init__.py imports to re-export, so it is not checked
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_check_sees_what_it_should():
    tree = ast.parse("import os, a.b as c\nfrom x import (y, z as w)\n"
                     "from __future__ import annotations\n"
                     "def f(v=y):\n    return os.sep, w.q\n")
    assert _unused_imports(tree) == [(1, "c")]


def _unread_private_names(trees):
    """Private top-level functions and classes of the modules (name ->
    tree) that no module reads outside their own definition."""
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                defined[node.name] = (module, node)
    reads = set()
    for module, tree in trees.items():
        for top in tree.body:
            inner = {n for n in ast.walk(top)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                     or isinstance(n, ast.Attribute)}
            for n in inner:
                name = n.id if isinstance(n, ast.Name) else n.attr
                owner = defined.get(name)
                if owner is None or owner != (module, top):
                    reads.add(name)
    return sorted("%s:%s" % (defined[name][0], name)
                  for name in defined if name not in reads)


def test_every_private_helper_is_read_in_the_package():
    # a private helper only the tests call is dead code kept alive by
    # its tests; public API (blob_insert, homology, ...) may go unread
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in PACKAGE.glob("*.py")}
    assert _unread_private_names(trees) == []


def test_private_helper_check_sees_what_it_should():
    trees = {"a.py": ast.parse("def _used():\n    pass\n"
                               "def _self(n):\n    return _self(n - 1)\n"
                               "class _Cls:\n    pass\n"
                               "def __dunder__():\n    pass\n"
                               "def public():\n    return _used()\n"),
             "b.py": ast.parse("import a\nx = a._Cls\n")}
    assert _unread_private_names(trees) == ["a.py:_self"]


def _unread_slots(trees):
    """Names in a class's __slots__ that no module reads as an attribute.

    A read is an ast.Attribute in a load context.  Like the private
    helper check, it matches by name only: x.walk reads every slot
    called walk, whatever class x has, and getattr with a string reads
    none.
    """
    slots = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in node.targets)):
                    value = ast.literal_eval(node.value)
                    names = (value,) if isinstance(value, str) else value
                    slots += ["%s:%s.%s" % (module, cls.name, name)
                              for name in names]
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    return sorted(s for s in slots if s.rpartition(".")[2] not in reads)


def test_every_slot_is_read_in_the_package():
    # a field that is stored and never read is a second copy of
    # something, or of nothing
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in PACKAGE.glob("*.py")}
    assert _unread_slots(trees) == []


def test_slot_check_sees_what_it_should():
    trees = {"a.py": ast.parse("class A:\n"
                               "    __slots__ = ('read', 'stored')\n"
                               "    def __init__(self):\n"
                               "        self.read = self.stored = 1\n"
                               "class B:\n    __slots__ = 'lone'\n"
                               "class C:\n    __slots__ = ()\n"),
             "b.py": ast.parse("def f(a):\n    return a.read\n")}
    assert _unread_slots(trees) == ["a.py:A.stored", "a.py:B.lone"]
