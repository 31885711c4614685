"""The runtime needs nothing beyond the standard library: every absolute
import in the package names a standard-library module."""

import ast
import pathlib
import sys

import qwirt

SOURCES = sorted(pathlib.Path(qwirt.__file__).parent.glob("*.py"))


def _absolute_imports(path):
    """(line, top-level module name) of each absolute import in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_the_package_has_sources():
    assert {"cli.py", "slicefn.py"} <= {path.name for path in SOURCES}


def test_every_absolute_import_is_in_the_standard_library():
    outside = ["%s:%d %s" % (path.name, line, name)
               for path in SOURCES for line, name in _absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert outside == []
