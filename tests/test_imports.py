"""Every name a package module imports is used in that module, and none imports numpy."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pipesched"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never referenced; `__future__` imports and `__all__` entries are exempt."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # a quoted annotation such as `-> "Schedule"` uses the names inside it
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval")) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used | exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_packages(source: str) -> set[str]:
    """Top-level packages of every absolute import, at module level or inside a function."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_import(path):
    # numpy is not a dependency; the shim reaches HiGHS through scipy's extension module alone
    assert "numpy" not in imported_packages(path.read_text(encoding="utf-8"))


def test_import_scan_sees_function_level_and_skips_relative_imports():
    source = "from . import numpy\nfrom .numpy import x\ndef f():\n    import numpy.linalg as la\n    from scipy import sparse\n"
    assert imported_packages(source) == {"numpy", "scipy"}


def test_checker_flags_unused_and_exempts_exports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Optional\n"
        "from .a import b as c, d\n"
        "__all__ = ['d']\n"
        "from .e import E\n"
        "def f(x: Optional[int]) -> 'E':\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["c (line 4)", "sys (line 2)"]


def test_importing_the_package_and_hashing_an_instance_load_no_numpy_scipy_or_openssl():
    # `_hashlib` is OpenSSL's binding: `instance_hash` must use CPython's own SHA-256
    code = (
        "import sys, pipesched\n"
        "from pipesched.generator import PathExperimentParams, generate_path_instance\n"
        "from pipesched.instance import instance_hash\n"
        "instance_hash(generate_path_instance(PathExperimentParams(vertices=2, horizon=12, nomination_batches=1)))\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy', '_hashlib'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC.parent, capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.strip() == "[]"
