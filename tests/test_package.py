"""The package surface: what `from deadending import *` binds, and the README
quickstart, run as written."""

import ast
import contextlib
import io
import pathlib

import deadending

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_star_import_binds_every_name_the_package_imports():
    tree = ast.parse(pathlib.Path(deadending.__file__).read_text())
    names = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(names) == 37
    namespace = {}
    exec("from deadending import *", namespace)
    assert names <= set(namespace)


def quickstart():
    """The README's Python quickstart block."""
    section = README.read_text().split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_prints_what_its_comments_say():
    code = quickstart()
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
