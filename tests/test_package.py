"""The package surface: what `from deadending import *` binds, the README
quickstart and command lines, run as written, and the functions the
benchmark traces by name."""

import ast
import contextlib
import importlib
import io
import pathlib
import re
import shlex
import types

import deadending
from deadending import cli

ROOT = pathlib.Path(__file__).parents[1]
README = ROOT / "README.md"
BENCH_RUN = ROOT / "perfbench" / "run.py"


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


def command_lines():
    """The README's command-line block: (argv, comment) per `deadending` line."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        (shlex.split(line, comments=True)[1:], line.partition("#")[2].strip())
        for line in block.splitlines()
        if line.startswith("deadending ")
    ]


def test_readme_command_lines_exit_and_print_what_their_comments_say():
    # a comment reads "TEXT", "TEXT, exit N" or "TEXT (remark)"; no comment
    # means exit 0
    lines = command_lines()
    assert len(lines) == 13
    for argv, comment in lines:
        text, _, code = comment.partition(", exit ")
        text = re.sub(r"\(.*\)", "", text).strip()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = cli.main(argv)
        assert exit_code == int(code or 0), (argv, err.getvalue())
        assert text in out.getvalue(), argv


def traced_functions():
    """The `TRACED_FUNCTIONS` tuple of the benchmark runner, read without importing it."""
    for node in ast.parse(BENCH_RUN.read_text()).body:
        if isinstance(node, ast.Assign) and [
            target.id for target in node.targets if isinstance(target, ast.Name)
        ] == ["TRACED_FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED_FUNCTIONS in {BENCH_RUN}")


def test_benchmark_traces_only_public_functions_that_exist():
    # the runner reads a traced name it never saw as 0 calls, so a renamed or
    # deleted function would pass unnoticed there
    names = traced_functions()
    assert names
    for traced in names:
        module_name, _, name = traced.partition(".")
        module = importlib.import_module(f"deadending.{module_name}")
        fn = getattr(module, name, None)
        assert isinstance(fn, types.FunctionType), traced
        assert not name.startswith("_"), traced
        # the tracer names a function by the module that defines it
        assert (fn.__module__, fn.__name__) == (module.__name__, name), traced
