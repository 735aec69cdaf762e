import ast
from pathlib import Path

import qgle

SOURCES = sorted(Path(qgle.__file__).parent.glob("*.py"))


def test_no_imports_inside_functions():
    # every module imports at its top, so its dependencies are read in one
    # place and an import error shows when the package is loaded
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert SOURCES and found == []
