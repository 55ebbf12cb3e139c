"""The lazy ``cpmaps`` namespace and the modules each CLI command loads.

``import cpmaps`` loads no submodule; a public name is imported from its
home module on first use.  A cold CLI command loads the modules it runs and
no others, so each check below starts a fresh interpreter.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import cpmaps

from conftest import DATA, SRC


def run_python(code, *args):
    """Run ``python -c code *args`` in ``tests/data``; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, cwd=DATA, env=env,
                          check=True)
    return proc.stdout


@pytest.mark.parametrize("name", cpmaps.__all__)
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(cpmaps, name)
    assert vars(cpmaps)[name] is obj  # kept: the next lookup is a plain read
    if inspect.ismodule(obj):
        assert obj is importlib.import_module(f"cpmaps.{name}")
        return
    home = importlib.import_module(f"cpmaps.{cpmaps._HOME[name]}")
    assert obj is getattr(home, name)
    if inspect.isclass(obj) or inspect.isfunction(obj):
        assert obj.__module__ == home.__name__


def test_dir_lists_every_public_name():
    assert set(cpmaps.__all__) <= set(dir(cpmaps))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cpmaps import *", namespace)
    for name in cpmaps.__all__:
        assert namespace[name] is getattr(cpmaps, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cpmaps.no_such_name


def test_import_loads_no_submodule():
    out = run_python("import sys, cpmaps\n"
                     "print(sorted(m for m in sys.modules"
                     " if m.startswith('cpmaps')), 'numpy' in sys.modules)")
    assert out.split("\n")[0] == "['cpmaps'] False"


ANALYZE = {"linalg", "errors", "cp_map", "serialize", "cli"}
EVERY_MODULE = {path.stem for path in (SRC / "cpmaps").glob("*.py")} - {
    "__init__", "__main__"}


@pytest.mark.parametrize("args, modules", [
    (["analyze", "special_map.json"], ANALYZE),
    (["quasipure", "special_map.json"], ANALYZE | {"quasipure"}),
    (["complete", "special_partial.json", "e11_operator.json"],
     ANALYZE | {"stinespring", "completion"}),
    (["aeq", "nqp_phi.json", "nqp_psi.json", "--r", "nqp_r.json"],
     EVERY_MODULE - {"gallery"}),
    (["demo", "--list"], ANALYZE),
], ids=["analyze", "quasipure", "complete", "aeq", "demo-list"])
def test_cold_command_loads_only_its_modules(args, modules):
    code = (
        "import contextlib, io, json, sys\n"
        "from cpmaps.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(sys.argv[1:])\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('cpmaps.'))))\n"
    )
    loaded = json.loads(run_python(code, *args))
    assert loaded == sorted(f"cpmaps.{m}" for m in modules)
