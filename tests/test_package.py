import re
from importlib import import_module
from pathlib import Path

import pytest

import volkit
from conftest import run_fresh

# The README's "Public API" table is the one written list of public names: (name, module) per row.
README = Path(__file__).resolve().parent.parent / "README.md"
ROWS = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", README.read_text(encoding="utf-8"), re.M)
EXPORTS = dict(ROWS)


def test_readme_table_is_the_export_table():
    assert ROWS == list(volkit._EXPORTS.items())
    assert volkit.__all__ == list(volkit._EXPORTS)


def test_every_public_name_resolves_to_its_definition():
    for name, module in EXPORTS.items():
        assert getattr(volkit, name) is getattr(import_module(f"volkit.{module}"), name), name
    assert volkit.__version__ == "0.1.0"


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from volkit import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    for name, module in EXPORTS.items():
        assert namespace[name] is getattr(import_module(f"volkit.{module}"), name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        volkit.no_such_name


def test_submodules_import_from_the_package_in_a_fresh_interpreter():
    code = "from volkit import cli, segmetrics; assert callable(segmetrics.confusion) and callable(cli.main)"
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_dir_lists_every_public_name_before_any_is_used():
    code = (
        "import sys, volkit\n"
        "missing = set(volkit.__all__) - set(dir(volkit))\n"
        "assert not missing, sorted(missing)\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr
