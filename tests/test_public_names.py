import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]


def unreached_public_names(root: Path) -> set:
    """Public top-level functions and classes of src/opstab that nothing
    in src/opstab or perfbench references: no name, attribute or import
    there, and no string in perfbench (its tracer wraps functions by the
    attribute names it lists as strings)."""
    program = sorted((root / "src" / "opstab").glob("*.py"))
    bench = sorted((root / "perfbench").glob("*.py"))
    defined, used = set(), set()
    for path in program + bench:
        tree = ast.parse(path.read_text())
        if path in program:
            defined |= {node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif (path in bench and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                used.add(node.value)
    return defined - used


def test_every_public_name_is_reached_from_the_program():
    assert unreached_public_names(ROOT) == set()
