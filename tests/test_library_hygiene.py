"""Static checks on the library source, read with ``ast``.

Random draws belong only in the gallery's seeded examples and in the
random rows of the ``cpmaps demo`` table; every other verdict is a
function of its input.  And no module imports a name it never uses.
"""

import ast

import pytest

from conftest import SRC

LIBRARY = sorted((SRC / "cpmaps").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def random_uses(tree):
    """``(line, top-level definition)`` of each ``np.random`` and each
    import of ``random`` or ``numpy.random``."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                hit = (node.attr == "random"
                       and isinstance(node.value, ast.Name)
                       and node.value.id in ("np", "numpy"))
            elif isinstance(node, ast.Import):
                hit = any(alias.name in ("random", "numpy.random")
                          for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module in ("random", "numpy.random") or (
                    node.module == "numpy"
                    and any(alias.name == "random" for alias in node.names))
            else:
                hit = False
            if hit:
                found.append((node.lineno, owner))
    return found


def imported_names(tree):
    """``{name: line}`` of each name an import binds, ``__future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree):
    """Names read anywhere in ``tree``, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        note = None
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= read_names(ast.parse(note.value, mode="eval"))
    return used


def used_names(module):
    """Names the module reads or re-exports through ``__all__``."""
    used = read_names(module)
    for node in module.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_random_draws_only_in_gallery_and_the_demo_table(path):
    def allowed(owner):
        return path.name == "gallery.py" or (
            path.name == "cli.py" and owner == "_demo_rows")

    stray = [f"{path.name}:{line}"
             for line, owner in random_uses(parse(path)) if not allowed(owner)]
    assert stray == []


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = parse(path)
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in sorted(imported_names(tree).items())
              if name not in used]
    assert unused == []


def test_the_checks_see_what_they_look_for():
    # each check flags a planted offence and passes the allowed forms
    tree = ast.parse("import os\nimport numpy as np\n"
                     "def f():\n    return np.random.default_rng(0)\n")
    assert random_uses(tree) == [(4, "f")]
    assert "os" not in used_names(tree)
    assert "np" in used_names(tree)
    tree = ast.parse("from typing import Optional\nfrom . import errors\n"
                     "__all__ = ['errors']\n"
                     "def g(x: 'Optional[int]') -> None:\n    pass\n")
    assert random_uses(tree) == []
    assert set(imported_names(tree)) <= used_names(tree)
