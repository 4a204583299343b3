import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import symmrel

MODULES = ["symmrel"] + [f"symmrel.{info.name}" for info in pkgutil.iter_modules(symmrel.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def test_runtime_imports_only_the_standard_library():
    # The package declares no dependencies: importing it and its CLI may load
    # nothing outside the standard library and symmrel itself.  __mp_main__ is
    # the alias of __main__ that multiprocessing registers.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import symmrel, symmrel.cli\n"
        "tops = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(tops - set(sys.stdlib_module_names) - {'symmrel', '__mp_main__'}))\n"
    )
    src = Path(symmrel.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_leaves_process_pools_unloaded():
    # Only verify --jobs > 1 starts a pool; other commands skip its imports.
    script = "import sys, symmrel.cli\nprint('concurrent.futures' in sys.modules)\n"
    src = Path(symmrel.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_start_leaves_dataclasses_and_inspect_unloaded():
    # The start of every command: importing the package and building its
    # parser.  dataclasses and inspect (with ast, dis and tokenize) cost
    # ~12 ms there, and no computation needs them.
    script = (
        "import sys, symmrel, symmrel.cli\n"
        "symmrel.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    src = Path(symmrel.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
