import ast
import importlib
import re
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


def test_every_public_name_has_a_docstring():
    # a class or function in a module's __all__ documents itself; the
    # signature that dataclass fills into an empty __doc__ does not count
    missing = []
    for path in SOURCES:
        name = "qgle" if path.stem == "__init__" else f"qgle.{path.stem}"
        public = getattr(importlib.import_module(name), "__all__", ())
        tree = ast.parse(path.read_text(encoding="utf-8"))
        missing += [f"{path.name}:{node.name}" for node in tree.body
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                    and node.name in public and not ast.get_docstring(node)]
    assert SOURCES and missing == []


def test_readme_python_examples_run():
    # a renamed or removed public name breaks this test, not only the docs
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})
