"""Static check: every public module-level function and class of the library has a user."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def names_used(path: Path) -> set[str]:
    """Identifiers `path` names, each counted only outside the top-level definition of that name."""
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        named = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
        named.discard(getattr(stmt, "name", None))
        used |= named
    return used


def test_every_public_library_name_is_used_in_src_or_perfbench():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    used = set().union(*map(names_used, files))
    unused = [
        f"{path.name}:{stmt.name}"
        for path in sorted((ROOT / "src" / "speedcast").glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
        and stmt.name not in used
    ]
    assert unused == [], unused
