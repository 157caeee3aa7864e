"""Every imported name is read, no vasslab module imports another one's
private (underscore) names, only the LP layer and the ω-aware values import
`fractions`, no vasslab function takes an integer literal as a parameter
default, only `automata.Nfa` defines `step` and `eps_closure`, and every
top-level definition in src/vasslab is reached
from the CLI's `driver.main` or from a name the benchmark in bench/ uses:
walks over the syntax tree of each module in src/vasslab, tests, scripts and
bench."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/vasslab", "tests", "scripts") for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list:
    """The names the module imports and never reads; names listed in
    `__all__` and `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    read, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read | exported)


def private_imports(source: str) -> list:
    """The underscore names the module imports from another vasslab module,
    by a relative import or by `from vasslab... import`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "vasslab"):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name.startswith("_"))
    return sorted(found)


def test_checker_finds_an_unused_import():
    src = "from os import path, sep\nimport json\n__all__ = ['sep']\nprint(json)\n"
    assert unused_imports(src) == [(1, "path")]


def test_no_unused_imports():
    assert len(MODULES) > 30
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert {k: v for k, v in found.items() if v} == {}


def test_checker_finds_a_private_import():
    src = ("from .mgts import Dmgts, _sccs\nfrom vasslab.zsep import _small_vectors\n"
           "from os import _exit\nfrom . import chareq\n")
    assert private_imports(src) == [(1, "_sccs"), (2, "_small_vectors")]


def test_no_private_imports_across_package_modules():
    package = [p for p in MODULES if p.parent.name == "vasslab"]
    assert len(package) > 10
    found = {p.name: private_imports(p.read_text(encoding="utf-8")) for p in package}
    assert {k: v for k, v in found.items() if v} == {}


# exact rationals belong to the LP layer and to ω comparisons
FRACTION_MODULES = {"solver", "chareq", "values"}


def fractions_imports(source: str) -> list:
    """The lines that import the `fractions` module or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(node.lineno for alias in node.names
                         if alias.name.split(".")[0] == "fractions")
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and (node.module or "").split(".")[0] == "fractions"):
            found.append(node.lineno)
    return sorted(found)


def test_checker_finds_a_fractions_import():
    src = ("from fractions import Fraction\nimport math, fractions\nimport fractions as fr\n"
           "from .fractions import helper\nfrom decimal import Decimal\n")
    assert fractions_imports(src) == [1, 2, 3]


def test_only_the_lp_layer_and_values_import_fractions():
    package = [p for p in MODULES if p.parent.name == "vasslab"]
    assert len(package) > 10
    found = {p.stem for p in package if fractions_imports(p.read_text(encoding="utf-8"))}
    assert found - FRACTION_MODULES == set()


def literal_int_defaults(source: str) -> list:
    """The (line, function, parameter) of every parameter, positional or
    keyword-only, whose default is an integer literal; `True` and `False` are
    not integers here. A cap's value belongs in a `PipelineCaps` field or a
    module constant, where it has a name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found.extend((node.lineno, getattr(node, "name", "<lambda>"), a.arg)
                         for a, d in pairs if _is_int_literal(d))
    return sorted(found)


def _is_int_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_checker_finds_a_literal_int_default():
    src = ("CAP = 5\n"
           "def f(a, b=3, c=CAP, *, d=-1, e=True, f=None, g=7):\n    pass\n"
           "def h(x=2.0, y='1', z=0):\n    pass\n")
    assert literal_int_defaults(src) == [(2, "f", "b"), (2, "f", "d"), (2, "f", "g"),
                                         (4, "h", "z")]


def test_no_literal_int_defaults_in_package():
    package = [p for p in MODULES if p.parent.name == "vasslab"]
    assert len(package) > 10
    found = {p.name: literal_int_defaults(p.read_text(encoding="utf-8")) for p in package}
    assert {k: v for k, v in found.items() if v} == {}


# the one stepping code; the benchmark's tracer counts calls on this class
STEPPING = ("step", "eps_closure")


def stepping_definitions(source: str) -> list:
    """The (class, name) of every method or class attribute named in
    STEPPING, in any class of the module; an annotation without a value
    (a dataclass field, such as `decomposition.Observer.step`) defines no
    method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and item.value is None:
                    continue
                found.extend((node.name, name) for name in _top_level_names(item)
                             if name in STEPPING)
    return sorted(found)


def test_checker_finds_a_stepping_override():
    src = ("class Nfa:\n    def step(self):\n        pass\n"
           "class Fast(Nfa):\n    eps_closure = None\n    def successors(self):\n        pass\n"
           "class Observer:\n    step: callable\n"
           "def step():\n    pass\n")
    assert stepping_definitions(src) == [("Fast", "eps_closure"), ("Nfa", "step")]


def test_only_nfa_defines_the_stepping():
    package = [p for p in MODULES if p.parent.name == "vasslab"]
    assert len(package) > 10
    found = {p.stem: stepping_definitions(p.read_text(encoding="utf-8")) for p in package}
    assert {k: v for k, v in found.items() if v} == {
        "automata": [("Nfa", "eps_closure"), ("Nfa", "step")]}


def _top_level_names(node):
    """The names a module-level statement defines: a def, a class or the plain
    names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _identifiers(tree, strings=False) -> set:
    """The names and attribute names read or bound in a syntax tree; with
    `strings`, also imported names and string constants spelling an
    identifier (how the benchmark's tracer names the functions it wraps)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.alias):
            found.add(node.asname or node.name)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found.add(node.value)
    return found


def unreached_definitions(package: dict, bench: list) -> list:
    """The "module.name" of every top-level definition of the package (module
    name -> source) that neither `driver.main` nor a definition named in a
    `bench` source reaches. A definition reaches every definition, in any
    module, whose name its body reads as a name or an attribute: the walk
    follows names, not imports, so it over-approximates what runs. Dunder
    names are exempt."""
    body = {}
    for module, source in package.items():
        for node in ast.parse(source).body:
            for name in _top_level_names(node):
                if not (name.startswith("__") and name.endswith("__")):
                    body[module, name] = node
    by_name = {}
    for key in body:
        by_name.setdefault(key[1], []).append(key)
    named = set().union(*(_identifiers(ast.parse(s), strings=True) for s in bench))
    todo = [("driver", "main")] + [k for k in body if k[1] in named]
    reached = set()
    while todo:
        key = todo.pop()
        if key in body and key not in reached:
            reached.add(key)
            todo.extend(k for name in _identifiers(body[key]) for k in by_name.get(name, ()))
    return sorted(f"{m}.{n}" for m, n in body.keys() - reached)


def test_checker_finds_an_unreached_definition():
    package = {
        "driver": "__all__ = ['main']\ndef main():\n    return helper()\ndef helper():\n    pass\n",
        "solver": ("CAP = 3\ndef lp_feasible():\n    return CAP\n"
                   "def orphan():\n    return lp_feasible()\n"),
    }
    bench = ["SPANS = {('solver', 'lp_feasible'): 'solver.lp'}\n"]
    # `CAP` is reached only through the bench-named `lp_feasible`; `__all__` is exempt
    assert unreached_definitions(package, bench) == ["solver.orphan"]
    assert unreached_definitions(package, []) == ["solver.CAP", "solver.lp_feasible",
                                                  "solver.orphan"]


def test_every_package_definition_is_reachable():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES if p.parent.name == "vasslab"}
    bench = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))]
    assert len(package) > 10 and len(bench) > 5
    assert unreached_definitions(package, bench) == []
