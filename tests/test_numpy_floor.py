"""The package and its scripts use only names that pyproject.toml's NumPy floor has.

pyproject.toml allows numpy>=1.24, so no line of src/ or scripts/ may read a name
that NumPy 1.24-1.26 lacks: the array API names of NumPy 2.0 and later, or the
modules added in 1.25.  The suite itself may run on NumPy 2 only, so this reads
the sources rather than importing them under an old NumPy.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Array attributes added in NumPy 2.0.
ARRAY_ATTRIBUTES = {"mT", "device", "to_device"}
# numpy.<name> missing from NumPy 1.24 (dtypes, exceptions) or from 1.26 (the rest).
NUMPY_NAMES = {
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh", "bitwise_invert",
    "bitwise_left_shift", "bitwise_right_shift", "bool", "concat", "cumulative_prod",
    "cumulative_sum", "dtypes", "exceptions", "isdtype", "long", "matrix_transpose", "matvec",
    "permute_dims", "pow", "trapezoid", "ulong", "unique_all", "unique_counts",
    "unique_inverse", "unique_values", "unstack", "vecdot", "vecmat",
}
# numpy.linalg.<name> added in NumPy 2.0.
LINALG_NAMES = {
    "cross", "diagonal", "matmul", "matrix_norm", "matrix_transpose", "outer", "svdvals",
    "tensordot", "trace", "vecdot", "vector_norm",
}
MISSING = {"numpy": NUMPY_NAMES, "numpy.linalg": LINALG_NAMES}


def module_of(node, modules):
    """The numpy module the expression node names, through the local names in
    `modules`, or None."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute):
        parent = module_of(node.value, modules)
        return parent and f"{parent}.{node.attr}"
    return None


def numpy_2_uses(source):
    """(line, name) of every array attribute in ARRAY_ATTRIBUTES and every name in
    MISSING that the source imports from numpy or reads off a numpy module."""
    tree = ast.parse(source)
    modules, found = {}, []  # local name -> the numpy module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    modules[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and node.module in MISSING:
            for alias in node.names:
                if f"{node.module}.{alias.name}" in MISSING:
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                elif alias.name in MISSING[node.module]:
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr in ARRAY_ATTRIBUTES
                or node.attr in MISSING.get(module_of(node.value, modules), ())):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_no_numpy_2_names():
    # the detector sees each form: an array attribute on any object, a name read off
    # numpy or numpy.linalg under any alias, or imported from them; the 1.24 names
    # and objects that are not numpy's pass
    sample = (
        "import numpy as np\n"
        "from numpy import concat as cat, linalg\n"
        "from numpy.linalg import vecdot, norm\n"
        "a.mT\n"
        "np.concat([a, b])\n"
        "np.linalg.matrix_norm(a)\n"
        "linalg.outer(a, b)\n"
        "x.device\n"
        "np.concatenate([a]).T @ np.linalg.norm(a)\n"
        "other.concat, np.swapaxes\n"
    )
    assert numpy_2_uses(sample) == [
        (2, "concat"), (3, "vecdot"), (4, "mT"), (5, "concat"), (6, "matrix_norm"),
        (7, "outer"), (8, "device"),
    ]
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    found = {
        str(path.relative_to(ROOT)): uses
        for path in paths
        if (uses := numpy_2_uses(path.read_text()))
    }
    assert found == {}
