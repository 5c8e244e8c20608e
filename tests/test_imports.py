"""The package's import surface: its third-party imports, read from its
source with `ast`, and the modules a fresh interpreter loads for each use."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import dynatrack
from dynatrack.config import RunConfig, load_config

from helpers import python_stdout

SOURCE = Path(dynatrack.__file__).parent


def _scipy_imports(path: Path) -> set:
    """Every scipy name `path` imports, as "module.name" or "module"."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.split(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "scipy":
            names |= {f"{node.module}.{a.name}" for a in node.names}
    return names


def test_no_module_imports_scipy():
    found = {path.name: _scipy_imports(path) for path in sorted(SOURCE.glob("*.py"))}
    assert {name: imports for name, imports in found.items() if imports} == {}


def test_no_module_imports_a_private_name_of_another():
    # A name another module needs gets a public name; "from .x import _y"
    # and "from dynatrack.x import _y" both count.
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "dynatrack"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                if private:
                    found.setdefault(path.name, []).extend(private)
    assert found == {}


def _package_imports(path: Path) -> set:
    """The package's modules that `path` imports, by name, absolute or relative."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("dynatrack.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "dynatrack":
                continue
            if node.level == 0:
                module = module.partition(".")[2]
            names |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return names


def test_scoring_and_occlusion_pair_points_without_importing_the_tracker():
    # Gated assignment stands alone, so a scorer built on it loads no bank.
    assert _package_imports(SOURCE / "association.py") == {"errors"}
    assert "tracker" not in _package_imports(SOURCE / "occlusion.py")


def test_importing_the_package_and_cli_loads_no_scipy():
    # Also catches a dependency that imports scipy on the package's behalf.
    code = ("import sys, dynatrack, dynatrack.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(SOURCE.parent),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.strip() == "[]"


def test_importing_the_package_loads_no_yaml_and_bad_yaml_still_fails(tmp_path):
    # PyYAML is imported by the functions that read or write YAML, not by
    # the package; a malformed config must still fail as a config error.
    (tmp_path / "bad.yaml").write_text("model_order: [1,\n")
    code = ("import sys, dynatrack\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'yaml']\n"
            "from dynatrack.errors import ConfigurationError\n"
            "try:\n"
            f"    dynatrack.load_config({str(tmp_path / 'bad.yaml')!r})\n"
            "except ConfigurationError as exc:\n"
            "    print('config error:', exc)\n")
    path = os.pathsep.join(filter(None, [str(SOURCE.parent),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.startswith("config error:")


GOLDEN = Path(__file__).parent / "data" / "golden" / "seq8x60.txt"


def _loaded(names) -> str:
    """Code that prints which of `names`, or of their submodules, are loaded."""
    return ("import sys\n"
            "print(sorted(m for m in sys.modules if any(\n"
            f"    m == n or m.startswith(n + '.') for n in {names!r})))\n")


def test_building_a_tracker_loads_no_io_scoring_occlusion_or_synthesis():
    code = ("from dynatrack.config import RunConfig\n"
            "from dynatrack.tracker import MultiObjectTracker\n"
            "MultiObjectTracker(RunConfig())\n"
            + _loaded(("dynatrack.kitti_io", "dynatrack.metrics",
                       "dynatrack.occlusion", "dynatrack.synth", "yaml",
                       "multiprocessing")))
    assert python_stdout(code) == "[]\n"


def test_serial_track_loads_no_synthesis_and_no_process_pool(tmp_path):
    code = ("from dynatrack import cli\n"
            f"assert cli.main(['track', {str(GOLDEN)!r}, '--jobs', '1',\n"
            f"                 '--output', {str(tmp_path)!r}]) == 0\n"
            + _loaded(("dynatrack.synth", "multiprocessing")))
    assert python_stdout(code).splitlines()[-1] == "[]"
    assert (tmp_path / "tracks" / GOLDEN.name).is_file()


def test_track_writes_its_effective_config_without_yaml(tmp_path):
    # `config_effective` is written without PyYAML, and reads back as the
    # config the run used.
    code = ("from dynatrack import cli\n"
            f"assert cli.main(['track', {str(GOLDEN)!r}, '--jobs', '1',\n"
            f"                 '--dynamics-enabled', 'false',\n"
            f"                 '--output', {str(tmp_path)!r}]) == 0\n"
            + _loaded(("yaml",)))
    assert python_stdout(code, DYNATRACK_CONFIG="").splitlines()[-1] == "[]"
    assert load_config(tmp_path / "config_effective") == RunConfig(dynamics_enabled=False)


_EVERY_EXPORT = """
import sys
import dynatrack
assert [m for m in sys.modules if m.startswith("dynatrack.")] == []
star = {}
exec("from dynatrack import *", star)
for name in dynatrack.__all__:
    value = getattr(dynatrack, name)
    assert star[name] is value, name
    if name != "__version__":
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert getattr(dynatrack, value.__module__.split(".")[1]) \\
            is sys.modules[value.__module__], name
assert set(dynatrack.__all__) <= set(dir(dynatrack))
assert not hasattr(dynatrack, "no_such_name")
print(len(dynatrack.__all__))
"""


def test_every_exported_name_is_its_submodules_object_and_star_binds_it():
    # In a new interpreter, so that every name resolves on first use.
    assert python_stdout(_EVERY_EXPORT) == f"{len(dynatrack.__all__)}\n"
