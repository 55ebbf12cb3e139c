"""Static checks on the library source, read with ``ast``.

Random draws belong only in the gallery's seeded examples and in the
random rows of the ``cpmaps demo`` table; every other verdict is a
function of its input.  No module imports a name it never uses, nor any
package but the standard library, numpy and ``cpmaps`` itself.  And no
module outside ``linalg`` sets a threshold of its own or reads a
``Tolerance`` field, the CLI's flag plumbing aside: every equality, PSD
and rank judgement reads the caller's ``Tolerance`` through ``linalg``.
The private names one module imports from another are pinned, so a
private twin of a public function shows up as a change to this file.
"""

import ast
import sys

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


#: top-level packages a library module may import
ALLOWED_PACKAGES = sys.stdlib_module_names | {"numpy", "cpmaps"}


def foreign_imports(tree):
    """``(line, module)`` of each absolute import of a package outside
    :data:`ALLOWED_PACKAGES`; relative imports are ``cpmaps`` itself."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in modules
                  if name.split(".")[0] not in ALLOWED_PACKAGES]
    return sorted(found)


def private_imports(tree):
    """``(line, "module._name")`` of each private name imported from a
    ``cpmaps`` module, relatively or absolutely, at any depth."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module.split(".")[0] != "cpmaps":
                continue
            module = module.partition(".")[2]
        found += [(node.lineno, f"{module}.{alias.name}")
                  for alias in node.names if alias.name.startswith("_")]
    return found


#: ``(module, "home module._name")`` of each private name a library
#: module imports from another
PRIVATE_IMPORTS = {("ae_equiv.py", "completion._times_blocks"),
                   ("quasipure.py", "cp_map._canonical_phase")}


TOLERANCE_FIELDS = ("eps_rank", "eps_psd", "eps_eq")

#: ``(module, top-level definition)`` whose small literals are no
#: judgements: the polisher's stopping rules and the thresholds printed in
#: the byte-stable ``cpmaps demo`` report
THRESHOLD_OWNERS = {("quasipure.py", "_refine_candidate"),
                    ("cli.py", "_demo_rows")}


def _number(node):
    """The value of a numeric literal, signed or not, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float))):
        return node.value
    return None


def _power(node):
    """``|a| ** b`` for a power ``a ** b`` of two numeric literals, signed
    or not, else None."""
    base, power = _number(node.left), _number(node.right)
    if base is None or power is None:
        return None
    if isinstance(node.right, ast.UnaryOp):
        power = -power
    try:
        return abs(float(base)) ** power
    except (OverflowError, ZeroDivisionError):
        return None


def literal_thresholds(tree):
    """``(line, top-level definition)`` of each float literal in
    ``(0, 1e-3)``, of each power of two numeric literals in that range, and
    of each numeric multiple of a ``Tolerance`` field."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Constant):
                hit = (isinstance(node.value, float)
                       and 0.0 < node.value < 1e-3)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                value = _power(node)
                hit = value is not None and 0.0 < value < 1e-3
            elif isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Mult, ast.Div)):
                hit = any(_number(a) is not None
                          and isinstance(b, ast.Attribute)
                          and b.attr in TOLERANCE_FIELDS
                          for a, b in ((node.left, node.right),
                                       (node.right, node.left)))
            else:
                hit = False
            if hit:
                found.append((node.lineno, owner))
    return found


#: the CLI functions that turn ``--tol-*`` flags into a ``Tolerance`` and
#: back into the report's ``tolerances`` field
FIELD_READERS = {("cli.py", "_tolerance_args"), ("cli.py", "_tolerance"),
                 ("cli.py", "_tolerance_fields")}


def tolerance_reads(tree):
    """``(line, top-level definition)`` of each attribute read of a
    ``Tolerance`` field."""
    return [(node.lineno, getattr(top, "name", None))
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Attribute)
            and node.attr in TOLERANCE_FIELDS]


OUTSIDE_LINALG = [p for p in LIBRARY if p.name != "linalg.py"]


@pytest.mark.parametrize("path", OUTSIDE_LINALG, ids=lambda p: p.name)
def test_no_tolerance_field_read_outside_linalg(path):
    stray = [f"{path.name}:{line} in {owner}"
             for line, owner in tolerance_reads(parse(path))
             if (path.name, owner) not in FIELD_READERS]
    assert stray == []


@pytest.mark.parametrize("path", OUTSIDE_LINALG, ids=lambda p: p.name)
def test_no_threshold_outside_linalg(path):
    stray = [f"{path.name}:{line} in {owner}"
             for line, owner in literal_thresholds(parse(path))
             if (path.name, owner) not in THRESHOLD_OWNERS]
    assert stray == []


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


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_imports_only_the_standard_library_and_numpy(path):
    stray = [f"{path.name}:{line} {name}"
             for line, name in foreign_imports(parse(path))]
    assert stray == []


def test_private_names_cross_modules_only_where_pinned():
    found = {(path.name, name) for path in LIBRARY
             for _, name in private_imports(parse(path))}
    assert found == PRIVATE_IMPORTS


def test_the_private_import_scan_sees_what_it_looks_for():
    # a private name from a sibling, relative or absolute, at the top
    # level or inside a function, is flagged; public names, modules and
    # private names of other packages are not
    tree = ast.parse("from .stinespring import _twin, dominates\n"
                     "from . import linalg\n"
                     "from numpy.linalg import _umath_linalg\n"
                     "def f():\n"
                     "    from cpmaps.cp_map import _canonical_phase\n")
    assert private_imports(tree) == [(1, "stinespring._twin"),
                                     (5, "cp_map._canonical_phase")]


def test_the_import_scan_sees_what_it_looks_for():
    # a third-party import is flagged at the top level and inside a
    # function; the standard library, numpy and cpmaps, absolute or
    # relative, are not
    tree = ast.parse("import sympy\nimport numpy as np, math\n"
                     "from fractions import Fraction\nfrom . import linalg\n"
                     "from cpmaps.linalg import kept\n"
                     "def f():\n    from sympy.polys import Poly\n"
                     "    import scipy.linalg\n")
    assert foreign_imports(tree) == [(1, "sympy"), (7, "sympy.polys"),
                                     (8, "scipy.linalg")]


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


def test_the_threshold_scan_sees_what_it_looks_for():
    # a literal threshold, one spelled as a power and two multiples of a
    # field are flagged; a field times a variable, 0.5, 1e-3, 0.0, 2 ** 10,
    # 0.0 ** -1 and x ** -102 are not
    tree = ast.parse("def h(x, tol):\n"
                     "    a = x <= 1e-8 * max(1.0, x)\n"
                     "    b = x < -10 * tol.eps_psd or x > tol.eps_eq / 2\n"
                     "    c = abs(x) < 2.0 ** -102\n"
                     "    return a, b, c, 0.5, 1e-3, x * tol.eps_rank, 0.0, "
                     "2 ** 10, 0.0 ** -1, x ** -102\n")
    assert sorted(literal_thresholds(tree)) == [(2, "h"), (3, "h"),
                                                (3, "h"), (4, "h")]


def test_the_field_scan_sees_what_it_looks_for():
    # reads of a field, of an instance or of the class, are flagged; the
    # keyword that sets one and the field's name in a string are not
    tree = ast.parse("def k(x, tol):\n"
                     "    cut = tol.eps_rank * x\n"
                     "    return cut, Tolerance.eps_eq, Tolerance(eps_psd=x), "
                     "'eps_rank'\n")
    assert tolerance_reads(tree) == [(2, "k"), (3, "k")]
