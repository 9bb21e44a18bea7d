"""Every function, class and method of the library has a caller outside
the tests, and every dataclass field a reader.

The library modules (not __init__.py, whose exports do not count as a
use), scripts/ and perfbench/ are parsed with ast, and every Name,
Attribute and ImportFrom in them is taken as a reference.  A top-level
function or class, or a method other than a dunder, defined in the
library and referenced nowhere there fails the test unless it is in
KEPT.  So does a field of a library dataclass that is never read there
as an attribute (``x.field``).

The check is by name only: a definition that shares its name with one
that is used counts as used.  Section.contains, for one, would be hidden
by PermGroup.contains.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "circulant"

# public names kept with no caller outside the tests, and why
KEPT = {
    "canonical_gwp": "the paper's generalized wreath product of permutation groups",
    "groups_equal": "exact equality of two permutation groups, how the tests compare groups",
    "kernel_on_blocks": "public kernel of a block action, read from the chain canonical_gwp builds",
    "sections": "ProjClass.sections, the members of a class, read by acceptance criteria 4 and 6",
    "symmetric": "public constructor of Sym(n) with its chain built by construction",
    "wreath": "public constructor of the paper's wreath product of S-rings",
}


def _sources():
    library = [p for p in sorted(LIBRARY.glob("*.py")) if p.name != "__init__.py"]
    others = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return library, others


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name


def _is_dataclass(node):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               or getattr(d, "id", None) == "dataclass" for d in node.decorator_list)


def _fields(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.target.id


def _attribute_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_library_name_has_a_caller_outside_the_tests():
    library, others = _sources()
    defined, referenced, fields, read = set(), set(), set(), set()
    for path in library + others:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path in library:
            defined.update(_definitions(tree))
            fields.update(_fields(tree))
        referenced.update(_references(tree))
        read.update(_attribute_reads(tree))
    assert (defined - referenced) | (fields - read) == set(KEPT)
