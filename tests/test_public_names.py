"""Library code that only the tests use moves into the tests or is deleted."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def _names_only_tests_use() -> list[str]:
    """The public functions and classes of src/slinv that no other src/ module, no bench/ file and no
    other line of their own module uses; the re-exports of __init__.py are no use."""
    modules = {path: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "slinv").glob("*.py"))
               if path.name != "__init__.py"}
    bench = "".join(path.read_text(encoding="utf-8") for path in (ROOT / "bench").glob("*.py"))
    unused = []
    for path, text in modules.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                word = re.compile(rf"\b{node.name}\b")
                own = any(word.search(line) for number, line in enumerate(text.splitlines(), start=1)
                          if number != node.lineno)
                others = any(word.search(other) for other_path, other in modules.items() if other_path != path)
                if not (own or others or word.search(bench)):
                    unused.append(f"{path.name}: {node.name}")
    return unused


def test_only_the_text_format_writers_are_public_names_no_library_code_uses():
    # kept for the parse-serialize round trip that the file formats document
    assert _names_only_tests_use() == ["spaces.py: serialize_form", "spaces.py: serialize_tensor",
                                       "tableaux.py: serialize_tableau"]
