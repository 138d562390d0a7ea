"""Static check: every module-level function, class and constant of the library, public or private, has a user."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def names_used(path: Path) -> set[str]:
    """Identifiers `path` reads, each counted only outside the top-level definition of that name.

    Assignment targets are not uses, so a constant is not used by its own assignment.
    """
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        named = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
        named.discard(getattr(stmt, "name", None))
        used |= named
    return used


def module_names(path: Path) -> list[str]:
    """Module-level functions, classes and assigned constants of `path`, public and private."""
    names = []
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names += [target.id for target in stmt.targets if isinstance(target, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.append(stmt.target.id)
    return names


def test_every_public_library_name_is_used_in_src_or_perfbench():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    used = set().union(*map(names_used, files))
    unused = [
        f"{path.name}:{name}"
        for path in sorted((ROOT / "src" / "speedcast").glob("*.py"))
        for name in module_names(path)
        if name not in used
    ]
    assert unused == [], unused
