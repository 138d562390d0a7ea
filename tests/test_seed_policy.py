"""Static check: each seed role of a trained run is derived in exactly one place in the library."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def derive_seed_keys() -> list[tuple[str, set[str]]]:
    """(file:line, string literals among the arguments) of every `derive_seed` call under src/speedcast."""
    calls = []
    for path in sorted((ROOT / "src" / "speedcast").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            callee = getattr(node, "func", None)  # `derive_seed(...)` or `seeding.derive_seed(...)`
            if getattr(callee, "id", getattr(callee, "attr", None)) == "derive_seed":
                constants = [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
                calls.append((f"{path.name}:{node.lineno}", {c for c in constants if isinstance(c, str)}))
    return calls


@pytest.mark.parametrize("role", ["split", "init", "train"])
def test_each_seed_role_is_derived_in_one_place(role):
    sites = [site for site, literals in derive_seed_keys() if role in literals]
    assert len(sites) == 1, sites
