"""The library's imports and definitions are all in use.

Every name a csbsim module, or a reference module under tests/, imports is
used in that module. Names listed in the module's ``__all__`` count as used
(they are re-exported), and ``from __future__`` imports are compiler
directives.

Every public top-level function and class of csbsim is reached from the CLI
entry point ``cli.main``, so reference code that only tests call lives in
tests/oracles.py, not in the library.
"""

import ast
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "csbsim")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
REFERENCE_MODULES = ["oracles.py", "dp_oracle.py"]

# Public definitions that no subcommand runs, each with the reason it stays.
UNREACHED_ALLOWED = {
    ("cli", "dump_config"): "writes a config back as the file load_config reads, for runs that record their inputs",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1]) if name not in used]


def unreached_definitions(sources: dict[str, str], root: tuple[str, str]) -> list[tuple[str, str]]:
    """Public top-level functions and classes that root does not reach.

    sources maps a package's module names to their source. A top-level
    definition reaches every name it loads (ast.Name) that is a top-level
    definition of its module or a name the module imports with
    ``from .module import name``, and every name it imports that way itself;
    reach is transitive. Attribute access (obj.name) does not count.
    """
    defs: dict[tuple[str, str], ast.AST] = {}
    imports: dict[str, dict[str, tuple[str, str]]] = {}
    for module, source in sources.items():
        imports[module] = {}
        for node in ast.parse(source).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imports[module][alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(module, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[(module, name.id)] = node

    def resolve(module, name):
        while (module, name) not in defs and name in imports.get(module, {}):
            module, name = imports[module][name]
        return module, name

    reached, todo = set(), [root]
    while todo:
        key = resolve(*todo.pop())
        if key in reached or key not in defs:
            continue
        reached.add(key)
        module = key[0]
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                todo.append((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                todo.extend((node.module, alias.name) for alias in node.names)
    public = (
        key for key, node in defs.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not key[1].startswith("_")
    )
    return sorted(key for key in public if key not in reached)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


@pytest.mark.parametrize("module", REFERENCE_MODULES)
def test_reference_module_uses_every_import(module):
    with open(os.path.join(TESTS, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math\nimport os\nfrom x import a, b as c\n__all__ = ['a']\n"
    assert unused_imports(source + "os.sep\n") == ["line 2: math", "line 4: c"]


def test_every_public_definition_is_reached_from_the_cli():
    sources = {}
    for name in MODULES:
        with open(os.path.join(SRC, name)) as fh:
            sources[name[:-3]] = fh.read()
    assert unreached_definitions(sources, ("cli", "main")) == sorted(UNREACHED_ALLOWED)


def test_reach_check_follows_loads_and_imports_but_not_attributes():
    sources = {
        "cli": "from .a import f as g\nTABLE = {'x': g}\ndef main():\n    TABLE['x']()\n",
        "a": (
            "from .b import h\n"
            "def f():\n    from .b import k\n    return h() + k()\n"
            "def unused():\n    pass\n"
            "class Holder:\n    def method(self):\n        return self.attr\n"
            "def _private():\n    pass\n"
        ),
        "b": "def h():\n    return Holder.attr\ndef k():\n    return 0\ndef attr():\n    return 1\n",
    }
    assert unreached_definitions(sources, ("cli", "main")) == [("a", "Holder"), ("a", "unused"), ("b", "attr")]
