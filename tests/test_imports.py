"""No module of the package reads a leading-underscore name of a sibling
module: a helper that two modules share is public in the module that owns
it, as group.integer_arg is."""

import ast
from pathlib import Path

import pytest

import vilenkin

PACKAGE = Path(vilenkin.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def sibling(module):
    """The sibling module named by an import ("group", ".group" or
    "vilenkin.group"), or None."""
    name = module.removeprefix("vilenkin.")
    return name if name in MODULES else None


def private_uses(source):
    """(line, "<module>.<name>") for each private sibling name the source
    imports or reads as an attribute of a sibling module."""
    tree = ast.parse(source)
    aliases = {}  # local name -> sibling module it is bound to
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 and node.module is None or node.module == "vilenkin"
            owner = sibling(node.module or "") if node.level <= 1 else None
            for alias in node.names:
                if package and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif owner and is_private(alias.name):
                    uses.append((node.lineno, f"{owner}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and sibling(alias.name):
                    aliases[alias.asname] = sibling(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and is_private(node.attr)):
            uses.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}"))
    return sorted(uses)


def test_detector_finds_each_form_of_private_use():
    source = (
        "from .group import _point, to_digits\n"
        "from . import hardy, transform as tr\n"
        "import vilenkin.identities as ids\n"
        "hardy._weight(abs, 2)\n"
        "tr._axis_pass, tr.synthesize, ids._KernelTable\n"
        "from vilenkin.funcspace import __all__\n"
    )
    assert private_uses(source) == [
        (1, "group._point"), (4, "hardy._weight"),
        (5, "identities._KernelTable"), (5, "transform._axis_pass"),
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_a_private_name_of_a_sibling(module):
    assert private_uses((PACKAGE / f"{module}.py").read_text()) == []
