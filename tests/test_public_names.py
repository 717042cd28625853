import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]


def module_imports(tree, modules):
    """({alias: module} for every opstab module imported whole, and
    {(module, name)} for every name imported from one)."""
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.module or ""
        if node.level == 0 and package.split(".")[0] != "opstab":
            continue
        source = package.rpartition(".")[2]
        for alias in node.names:
            if source in modules:
                names.add((source, alias.name))
            elif alias.name in modules:
                aliases[alias.asname or alias.name] = alias.name
    return aliases, names


def unreached_public_names(root: Path) -> set:
    """Public top-level functions and classes M.name of src/opstab that
    neither src/opstab nor perfbench reaches. A name is reached by an
    attribute alias.name where alias is imported as module M, by
    `from ...M import name`, by a bare name inside M itself, or by a
    string in perfbench/tracing.py, whose sites() lists the attributes
    it wraps. A name or attribute elsewhere that merely spells the same
    word reaches nothing."""
    program = {path.stem: ast.parse(path.read_text())
               for path in sorted((root / "src" / "opstab").glob("*.py"))}
    bench = [ast.parse(path.read_text())
             for path in sorted((root / "perfbench").glob("*.py"))]
    defined = {(module, node.name) for module, tree in program.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    reached = {(module, node.id) for module, tree in program.items()
               for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for tree in [*program.values(), *bench]:
        aliases, names = module_imports(tree, program)
        reached |= names
        reached |= {(aliases[node.value.id], node.attr)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases}
    tracing = ast.parse((root / "perfbench" / "tracing.py").read_text())
    wrapped = {node.value for node in ast.walk(tracing)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    reached |= {(module, name) for module, name in defined if name in wrapped}
    return {f"{module}.{name}" for module, name in defined - reached}


def test_every_public_name_is_reached_from_the_program():
    assert unreached_public_names(ROOT) == set()
