"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gqclab"

JUMPS = (ast.Return, ast.Raise, ast.Break, ast.Continue)

#: a block of each kind with a statement after its jump, on lines 4, 7, 11
SAMPLE = """\
def f(x):
    for y in x:
        continue
        y += 1
    try:
        raise ValueError
        x = 0
    finally:
        pass
    return x
    x = 1
"""


def unreachable_lines(tree: ast.AST) -> list:
    """Sorted line of every statement that follows a jump in the same block."""
    lines = []
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for stmt, after in zip(block, block[1:]):
                if isinstance(stmt, JUMPS):
                    lines.append(after.lineno)
                    break
    return sorted(lines)


def test_no_statement_follows_a_jump():
    assert unreachable_lines(ast.parse(SAMPLE)) == [4, 7, 11]
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in unreachable_lines(ast.parse(path.read_text()))
    ]
    assert found == []
