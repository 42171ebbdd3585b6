"""The package runs on numpy and the standard library alone: every import
in `src/dcspp_yolo` is checked, and so is the declared dependency list."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "dcspp_yolo"}


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted((ROOT / "src" / "dcspp_yolo").glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative import of the package itself
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert foreign == []


def test_pyproject_declares_only_numpy():
    text = (ROOT / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert deps is not None
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in re.findall(r'"([^"]+)"', deps[1])]
    assert names == ["numpy"]
