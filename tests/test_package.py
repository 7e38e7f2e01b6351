"""The package's public names are its library modules' ``__all__`` lists."""

import ast
import sys
from functools import cached_property
from pathlib import Path
from types import FunctionType

import kickscope
import mutate
from kickscope import errors, experiment, hilbert, wavepacket

ROOT = Path(__file__).resolve().parents[1]
MODULES = (errors, hilbert, wavepacket, experiment)

# Public names that nothing outside the tests and their own module uses,
# each with the reason it stays public.
USED_ONLY_BY_TESTS = {
    "gaussian_state": "the state slit_state builds, at any center and width",
}

# Third-party modules the tests and demos may import: the runtime dependency
# and the test extra in pyproject.toml.
DECLARED_IMPORTS = {"numpy", "pytest", "hypothesis", "mpmath", "kickscope"}


def _identifiers(source: str) -> set[str]:
    """Every name that ``source`` reads, imports or looks up as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_package_exports_the_union_of_the_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert len(set(union)) == len(union)
    assert sorted(kickscope.__all__) == sorted(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(kickscope, name) is getattr(module, name), name


def _user_sources() -> dict[Path, str]:
    """The source of each package module, each demo and the README's Library block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    sources = {Path("README.md"): library}
    package = Path(kickscope.__file__).resolve().parent
    for path in sorted(package.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        sources[path] = path.read_text(encoding="utf-8")
    return sources


def test_every_public_name_is_used_outside_the_tests():
    # A user is another package module, a demo, or the README's Library
    # block; a name's own module and the tests do not count.
    users = {path: _identifiers(source) for path, source in _user_sources().items()}
    unused = {
        name
        for module in MODULES
        for name in module.__all__
        if not any(
            name in names
            for path, names in users.items()
            if path != Path(module.__file__).resolve()
        )
    }
    assert unused == set(USED_ONLY_BY_TESTS)


def test_every_public_method_and_property_is_used_outside_the_tests():
    # The methods and properties of every exported class.  One counts as
    # used where its name is looked up as an attribute in a package module,
    # its own included, in a demo or in the README's Library block.
    looked_up = {
        node.attr
        for source in _user_sources().values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
    }
    kinds = (FunctionType, property, cached_property, classmethod, staticmethod)
    members = {
        (cls.__name__, name)
        for module in MODULES
        for cls in (getattr(module, export) for export in module.__all__)
        if isinstance(cls, type)
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, kinds)
    }
    assert {f"{cls}.{name}" for cls, name in members if name not in looked_up} == set()


def _imports(path: Path) -> set[str]:
    """The top-level names of the modules that ``path`` imports absolutely."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return {m.split(".")[0] for m in modules}


def test_tests_and_demos_import_only_declared_modules():
    # The standard library, the declared dependencies and the modules in
    # tests/ are all a test or demo may import.
    tests = sorted((ROOT / "tests").glob("*.py"))
    allowed = set(sys.stdlib_module_names) | DECLARED_IMPORTS | {path.stem for path in tests}
    stray = {
        (path.name, m)
        for path in tests + sorted((ROOT / "demos").glob("*.py"))
        for m in _imports(path) - allowed
    }
    assert stray == set()


def test_only_conftest_starts_child_processes():
    # conftest.run_python is the one place that sets a child's interpreter,
    # PYTHONPATH, environment and timeout.
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert [path.name for path in tests if "subprocess" in _imports(path)] == ["conftest.py"]


def test_mutants_are_repeatable_single_node_changes():
    # tests/mutate.py's mutants of one module: the same ids in the same
    # order on every run, and each one node away from the source.
    path = Path(hilbert.__file__)
    mutants = mutate.mutants(path)
    assert [m for m, _, _ in mutants] == [m for m, _, _ in mutate.mutants(path)] != []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for mutant, source, _ in mutants:
        changed = ast.parse(source)
        assert len(mutate.node_diffs(tree, changed)) == 1, mutant
        assert mutate.docstrings(changed) == mutate.docstrings(tree), mutant
