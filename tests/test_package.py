"""The package surface and its source: the export list of `cliffharm`, the
demos that use it, no module importing a name it never uses, and no private
function that nothing calls."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import cliffharm

SRC = Path(cliffharm.__file__).parent
ROOT = SRC.parent.parent


def test_exports_are_unique_public_and_not_modules():
    names = cliffharm.__all__
    assert names[0] == "__version__"
    assert len(names) == len(set(names))
    assert not [k for k in names[1:] if k.startswith("_")]
    assert not [k for k in names if isinstance(getattr(cliffharm, k), ModuleType)]


def test_import_loads_no_mmap_module():
    """fields._mapped_empty imports mmap on first use: loaded by the package
    import, it moved every process's heap layout and peak RSS."""
    code = "import sys, cliffharm; print('mmap' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_loads_no_concurrent_futures():
    """algebra._Pool imports concurrent.futures, and the logging module with
    it, when the first pass that splits makes the pool: not on the package import."""
    code = "import sys, cliffharm; print(any(m.startswith('concurrent') for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_star_import_binds_every_export():
    scope = {}
    exec("from cliffharm import *", scope)
    assert set(scope) - {"__builtins__"} == set(cliffharm.__all__)


def _names_taken_from_cliffharm(source: str) -> set:
    """Names other than submodules that a piece of code takes from the
    package: `from cliffharm import x`, and `cliffharm.x` through any alias
    of `import cliffharm`."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "cliffharm"}
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "cliffharm"
             for a in node.names}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases}
    return {k for k in names if not (SRC / f"{k}.py").exists()}


def test_exports_cover_every_name_the_readme_demos_and_benchmark_import():
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    sources += [p.read_text() for d in ("demos", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    wanted = set().union(*map(_names_taken_from_cliffharm, sources))
    assert {"GridSpec", "hilbert", "natural_rep", "read_field"} <= wanted
    assert wanted <= set(cliffharm.__all__), wanted - set(cliffharm.__all__)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    res = subprocess.run([sys.executable, ROOT / "demos" / demo], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_every_private_function_is_named_outside_its_own_def():
    # suite runners are reached through the registry their `_suite` decorator fills
    defined, named = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__"):
                names.discard(node.name)
                if "_suite" not in {d.id for d in node.decorator_list if isinstance(d, ast.Name)}:
                    defined[node.name] = f"{path.name}:{node.lineno}"
            named |= names
    assert not [f"{where}: {name}" for name, where in defined.items() if name not in named]
