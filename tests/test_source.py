"""Static checks of the package source, with the standard library's ``ast``."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import chaoscalc

PACKAGE = Path(chaoscalc.__file__).parent
# the package's __init__ imports only to re-export
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports but never reads, each as ``name (line n)``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and assigned names that no module of
    ``sources`` (module name -> source) loads or imports, as ``module.name``;
    dunder names such as ``__version__`` are left out."""
    defined: dict[str, str] = {}
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((f"{module}.{name}", name) for name in names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(
        key for key, name in defined.items() if name not in read and not name.startswith("__")
    )


def test_unread_definitions_are_found():
    sources = {
        "a": "__version__ = '1'\nX = 1\n_Y: int = 2\ndef f():\n    return X\nclass C:\n    pass\n",
        "b": "from a import f\n",
    }
    assert unread_definitions(sources) == ["a.C", "a._Y"]


def test_every_top_level_definition_is_read_or_exported():
    # the package's __init__ imports, and so reads, every name it exports
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_definitions(sources) == []


def uncalled_exports(sources: dict[str, str]) -> list[str]:
    """The functions and constants that ``sources["__init__"]`` re-exports
    (``from .module import name``) and that no other module of ``sources``
    (module name -> source) loads, by name or as ``module.name``, as
    ``module.name``.  Classes are left out: a result type is read, not called."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    loaded = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                loaded.add(f"{node.value.id}.{node.attr}")
    exported = [
        (node.module, alias.name)
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    return [
        f"{module}.{name}"
        for module, name in exported
        if (module, name) not in classes and not {name, f"{module}.{name}"} & loaded
    ]


def test_uncalled_exports_are_found():
    sources = {
        "__init__": "from .a import LIMIT, Result, run, unused\n",
        "a": (
            "LIMIT = 3\nclass Result:\n    pass\ndef unused():\n    return 'unused'\n"
            "def run(x):\n    return Result() if x < LIMIT else None\n"
            "def main():\n    return run(1)\n"
        ),
    }
    assert uncalled_exports(sources) == ["a.unused"]


def test_every_exported_function_is_run_by_the_package():
    # the library is what the commands run: an export that no module loads is
    # a second route, and belongs in tests/_oracles.py
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert uncalled_exports(sources) == []


# ``module.name`` alone in a code span, or called in one, with ``chaoscalc.`` optional
QUALIFIED = re.compile(r"`(?:chaoscalc\.)?(\w+)\.(\w+)[`(]")
# ``Class.attr`` alone in a code span, or called in one: a capitalised first name
CLASS_ATTR = re.compile(r"`([A-Z]\w*)\.(\w+)[`(]")
# importing __main__ would run the command line
PACKAGE_MODULES = {p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__")}


def package_classes() -> dict[str, type]:
    """Every class that a ``chaoscalc`` module defines, by name."""
    classes = {}
    for module in PACKAGE_MODULES:
        namespace = importlib.import_module(f"chaoscalc.{module}")
        classes.update(
            (name, obj) for name, obj in vars(namespace).items()
            if isinstance(obj, type) and obj.__module__ == namespace.__name__
        )
    return classes


def has_attribute(cls: type, name: str) -> bool:
    """``hasattr``, with a dataclass's fields counted, defaults or not."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return name in fields or hasattr(cls, name)


def stale_references(text: str) -> list[str]:
    """The code-span references in ``text`` that name nothing: ``module.name``
    where the module is a ``chaoscalc`` module without an attribute ``name``,
    then ``Class.attr`` where no ``chaoscalc`` module defines a class ``Class``
    with an attribute ``attr``.  The docs name an outside class only with its
    module (``np.random.SFC64``), so an unknown capitalised name is stale."""
    classes = package_classes()
    return [
        f"{module}.{name}"
        for module, name in QUALIFIED.findall(text)
        if module in PACKAGE_MODULES
        and not hasattr(importlib.import_module(f"chaoscalc.{module}"), name)
    ] + [
        f"{cls}.{attr}"
        for cls, attr in CLASS_ATTR.findall(text)
        if cls not in classes or not has_attribute(classes[cls], attr)
    ]


def docstrings(source: str) -> str:
    """Every module, class and function docstring of ``source``, one after another."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    nodes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, kinds)]
    return "\n".join(filter(None, map(ast.get_docstring, nodes)))


def test_stale_references_are_found():
    source = (
        '"""See ``decompose.decompose_along`` and ``decompose.gone``."""\n'
        "def f():\n"
        '    """Calls ``influence.vanished(f)``, not ``step.direction`` or ``np.linalg.norm``."""\n'
        "# ``algebra.not_in_a_docstring``\n"
    )
    assert stale_references(docstrings(source)) == ["decompose.gone", "influence.vanished"]
    classes = (
        '"""Not ``EnsemblePoly.eval`` nor ``InputLaw.gone(x)``; ``InputLaw.level_bound``,\n'
        "``SampleSet.values`` (a field without a default), ``ChaosPoly.__mul__`` and\n"
        '``JsonResult.to_json_dict(r)`` name what is there."""\n'
    )
    assert stale_references(docstrings(classes)) == ["EnsemblePoly.eval", "InputLaw.gone"]
    readme = "`chaoscalc.algebra.ChaosPoly`, `chaoscalc.cli.nothing`, `chaoscalc.algebra`"
    assert stale_references(readme) == ["cli.nothing"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_docstring_references_name_what_their_module_defines(module):
    assert stale_references(docstrings((PACKAGE / module).read_text())) == []


def test_readme_references_name_what_their_module_defines():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert stale_references(readme.read_text()) == []


def test_readme_contract_names_the_generator():
    """The README's Reproducibility contract names ``GENERATOR_ID`` verbatim, so
    a change of generator must change the contract with it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    contract = readme.partition("\n## Reproducibility contract\n")[2].partition("\n## ")[0]
    assert chaoscalc.montecarlo.GENERATOR_ID in contract


# traced names that left the package; their per-layer metrics read 0
GONE_TRACED = {
    ("malliavin", "carre_du_champ"),
    ("decompose", "rotate_basis"),
    ("algebra", "partial_derivative"),
    ("algebra", "compose_hermite"),
    ("influence", "rho_1"),
}


def traced_names(source: str) -> list[tuple[str, str]]:
    """The ``(module, attribute)`` pairs of the ``TRACED`` table in ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(row.elts[1].value, row.elts[2].value) for row in node.value.elts]
    raise AssertionError("no TRACED table")


def test_benchmark_traces_names_the_package_defines():
    # the benchmark skips a traced function the package no longer has, and its
    # metrics read 0 without a warning: a removal or rename must edit GONE_TRACED
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    missing = {
        (module, attr)
        for module, attr in traced_names(spans.read_text())
        if not hasattr(importlib.import_module(f"chaoscalc.{module}"), attr)
    }
    assert missing == GONE_TRACED
    assert "__mul__" in vars(chaoscalc.algebra.ChaosPoly)
