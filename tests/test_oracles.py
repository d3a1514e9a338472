import ast
from pathlib import Path


def test_oracles_import_nothing_from_relclass():
    # the oracles check the package, so they must not share code with it
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = ["." * node.level + (node.module or "")]
        else:
            continue
        for module in modules:
            assert module.split(".")[0] != "relclass" and not module.startswith("."), module
