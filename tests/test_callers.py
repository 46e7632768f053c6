"""Every function, method and class in ``src/bellsim`` has a reader.

A public name (no leading underscore) that appears nowhere but its own
definition is a helper with no caller: delete it, or use it.  A public name
that only tests read is surface no run or user needs, unless the README
documents it or an acceptance criterion exercises it.  A private
module-level function or class must be read by ``src/bellsim`` itself; a
helper that only the tests read belongs in the tests.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bellsim"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions() -> Counter:
    names = Counter()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, DEFINITIONS):
                if not node.name.startswith("_"):
                    names[node.name] += 1
    return names


def _private_definitions() -> Counter:
    names = Counter()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS) and node.name.startswith("_"):
                names[node.name] += 1
    return names


def _words(files) -> Counter:
    words = Counter()
    for path in files:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def test_every_public_definition_is_used_elsewhere():
    words = _words([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), ROOT / "README.md"])
    unused = sorted(name for name, n in _definitions().items() if words[name] <= n)
    assert unused == []


def test_every_private_module_definition_is_read_in_the_package():
    words = _words(SRC.glob("*.py"))
    unused = sorted(name for name, n in _private_definitions().items() if words[name] <= n)
    assert unused == []


#: Library API on purpose that no module, README line or acceptance test reads, each with its reason.
TEST_ONLY_API = {
    "prob": "the point lookups of Behavior and TaggedJoint, the readable form of a table entry",
    "describe": "the text form of criterion 09's chain-rule rewrites",
}


def test_every_public_definition_has_a_reader_besides_the_unit_tests():
    # the package's re-exports in __init__ name everything, so they read nothing
    readers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    words = _words([*readers, ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"])
    test_only = {name for name, n in _definitions().items() if words[name] <= n}
    assert sorted(test_only - set(TEST_ONLY_API)) == []
    # an entry whose name gained a reader, or lost its definition, is stale
    assert sorted(set(TEST_ONLY_API) - test_only) == []
