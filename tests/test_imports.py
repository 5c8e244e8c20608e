"""The package's third-party surface, read from its source with `ast` and
from a fresh interpreter's loaded modules."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import dynatrack

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
