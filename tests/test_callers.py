"""Every public function, method and class in ``src/bellsim`` has a reader.

A public name (no leading underscore) that appears nowhere but its own
definition is a helper with no caller: delete it, or use it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bellsim"


def _definitions() -> Counter:
    names = Counter()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    names[node.name] += 1
    return names


def test_every_public_definition_is_used_elsewhere():
    files = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), ROOT / "README.md"]
    words = Counter()
    for path in files:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unused = sorted(name for name, n in _definitions().items() if words[name] <= n)
    assert unused == []
