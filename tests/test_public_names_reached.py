"""Every public function and class of the package is reached by the program.

A public top-level name that only tests call is code nobody runs: it is
kept working at a cost and tells a reader it matters. The pipeline (src/)
or the benchmark (perfbench/) must name each one somewhere besides its own
definition. Package __init__ re-exports do not count as uses.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "physmocap"

# hermite_eval is the plain-spline reference that hermite_weights is tested
# against; a reference only a test reads is its purpose.
EXEMPT = {"hermite_eval"}


def _program_files():
    files = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    return files + sorted((ROOT / "perfbench").rglob("*.py"))


def _names_used(tree):
    """Identifiers a module refers to: names, attributes, imported names,
    and identifier-like strings (the benchmark hooks functions by name)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.add(node.value)
    return used


def test_every_public_name_is_reached_by_the_program():
    defined = {}
    used = set()
    for path in _program_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= _names_used(tree)
        if PACKAGE in path.parents:
            for node in tree.body:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")):
                    defined[node.name] = path.relative_to(ROOT)
    unreached = sorted(f"{path}: {name}" for name, path in defined.items()
                       if name not in used and name not in EXEMPT)
    assert not unreached, unreached
