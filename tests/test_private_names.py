"""Tests and scripts use specang's public names only.

A name with a single leading underscore is private to the package: it may
change shape or go away without notice, so no test or script imports it or
reaches it as an attribute of something imported from specang.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def private_specang_uses(source):
    """(line, name) of every private specang name the source imports or
    reaches as an attribute of a name imported from specang."""
    tree = ast.parse(source)
    bound, found = set(), []

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "specang":
                    bound.add(alias.asname or "specang")
                    found += [(node.lineno, part) for part in alias.name.split(".") if private(part)]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "specang":
            found += [(node.lineno, part) for part in node.module.split(".") if private(part)]
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if private(alias.name):
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_no_private_specang_names():
    # the detector sees each form: a private import, a private attribute of
    # an imported module or name; dunders and other objects are not specang's
    sample = (
        "import specang.dynamics as dyn\n"
        "from specang.flags import _unit_determinant, pair_indices\n"
        "from specang import dynamics\n"
        "dyn._split_stage\n"
        "dynamics.integrate_split.__doc__\n"
        "pair_indices._cache\n"
        "other._private\n"
    )
    assert private_specang_uses(sample) == [
        (2, "_unit_determinant"), (4, "_split_stage"), (6, "_cache"),
    ]
    paths = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    found = {
        f"{path.parent.name}/{path.name}": uses
        for path in paths
        if (uses := private_specang_uses(path.read_text()))
    }
    assert found == {}
