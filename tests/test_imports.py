"""The package loads its submodules on first use: each check runs in a fresh
interpreter, so nothing an earlier test imported is already loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import fqspread

SRC = str(Path(fqspread.__file__).resolve().parents[1])


def fresh(code: str):
    """What ``code`` prints as JSON, run in a fresh interpreter on this package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('fqspread'))))"


def test_building_a_field_loads_only_ff():
    loaded = fresh("import fqspread; fqspread.ff.Field(5)\n" + LOADED)
    assert loaded == ["fqspread", "fqspread.errors", "fqspread.ff"]


def test_field_info_loads_no_census_expt_or_construct():
    loaded = fresh("from fqspread.cli import main; main(['field', 'info', '--field', '5'])\n" + LOADED)
    assert "fqspread.cli" in loaded
    assert not {"fqspread.census", "fqspread.expt", "fqspread.construct"} & set(loaded)


def test_every_export_is_its_submodules_object():
    mismatched = fresh(
        "import json, sys, types, fqspread\n"
        "def home(name, value):\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        return sys.modules[f'fqspread.{name}']\n"
        "    return getattr(sys.modules[value.__module__], name)\n"
        "print(json.dumps([n for n in fqspread.__all__ if getattr(fqspread, n) is not home(n, getattr(fqspread, n))]))"
    )
    assert mismatched == []


def test_dir_lists_every_export():
    missing = fresh("import json, fqspread; print(json.dumps(sorted(set(fqspread.__all__) - set(dir(fqspread)))))")
    assert missing == []


def test_unknown_name_is_attribute_error():
    raised = fresh(
        "import json, fqspread\n"
        "raised = []\n"
        "for name in ('nosuch', 'collision_count'):\n"
        "    try:\n"
        "        getattr(fqspread, name)\n"
        "    except AttributeError:\n"
        "        raised.append(name)\n"
        "print(json.dumps(raised))"
    )
    assert raised == ["nosuch", "collision_count"]


def test_star_import_binds_every_export():
    unbound = fresh(
        "import json, fqspread\n"
        "from fqspread import *\n"
        "print(json.dumps([n for n in fqspread.__all__ if globals().get(n) is not getattr(fqspread, n)]))"
    )
    assert unbound == []
