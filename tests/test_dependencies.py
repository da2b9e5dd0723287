"""langlift runs on numpy and the standard library alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "langlift"


def test_runtime_imports_are_stdlib_or_numpy():
    # every absolute import, function-level ones included
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "numpy":
                    outside.append(f"{path.name}:{node.lineno} imports {name}")
    assert not outside, outside
