"""Every public function and class of the package is reached by the program,
and so is every defaulted parameter of its public functions.

A public top-level name that only tests call is code nobody runs: it is
kept working at a cost and tells a reader it matters. The pipeline (src/)
or the benchmark (perfbench/) must name each one somewhere besides its own
definition. Likewise a default that every program call keeps is an option
with one value in use. A name is imported from the module that defines it:
no package __init__.py re-exports one.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "physmocap"

# hermite_eval is the plain-spline reference that hermite_weights is tested
# against; a reference only a test reads is its purpose.
EXEMPT = {"hermite_eval"}

# (function, parameter): why no program call passes it
DEFAULT_EXEMPT = {
    ("hermite_eval", "order"): "the test reference's derivative order",
    ("main", "argv"): "the console-script entry point reads sys.argv",
    ("solve_reduced", "collect_iterates"): "the hook through which tests "
                                           "read the solver's iterates",
}


def _program_files():
    return sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


def test_package_inits_bind_no_names():
    """No package __init__.py imports or binds a name but the top level's
    __version__: a docstring is all that the others may hold."""
    for path in PACKAGE.rglob("__init__.py"):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            version = (path.parent == PACKAGE and isinstance(node, ast.Assign)
                       and [ast.unparse(t) for t in node.targets] == ["__version__"])
            assert docstring or version, f"{path.relative_to(ROOT)}: {ast.unparse(node)}"


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


def _callee(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_every_default_is_passed_by_the_program():
    """A call passes a parameter by keyword, by position, or through
    functools.partial; a *args or **kwargs splat passes any."""
    defaulted = {}   # (function, parameter) -> positional index or None
    calls = []       # (callee name, positional args, keywords)
    for path in _program_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        if PACKAGE in path.parents:
            for node in tree.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    args = node.args
                    pos = args.posonlyargs + args.args
                    first = len(pos) - len(args.defaults)
                    for k, arg in enumerate(pos[first:], first):
                        defaulted[node.name, arg.arg] = k
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            defaulted[node.name, arg.arg] = None
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name, args = _callee(node.func), node.args
                if name == "partial" and args:
                    name, args = _callee(args[0]), args[1:]
                calls.append((name, args, node.keywords))

    def passed(fn, param, index):
        for name, args, keywords in calls:
            if name != fn:
                continue
            if any(kw.arg in (param, None) for kw in keywords):
                return True
            if index is not None and (len(args) > index or any(
                    isinstance(a, ast.Starred) for a in args)):
                return True
        return False

    unpassed = sorted(f"{fn}({param}=)" for (fn, param), index in defaulted.items()
                      if (fn, param) not in DEFAULT_EXEMPT
                      and not passed(fn, param, index))
    assert not unpassed, unpassed


def test_every_import_is_used():
    """A name a module imports but never reads is a dependency on nothing.
    `from __future__` imports and lines marked `# noqa: F401` (an import made
    for its side effect) are exempt."""
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or isinstance(node, ast.ImportFrom) and node.module == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {bound}")
    assert not unused, unused
