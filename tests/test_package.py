"""The package surface: what `from deadending import *` binds, the README
quickstart and command lines, run as written, the functions the benchmark
traces by name, and the stdlib modules the command line never imports."""

import ast
import contextlib
import importlib
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys
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


# Each of these costs import time on every one-shot query, and none is needed:
# records are named tuples or plain classes, and dyadic arithmetic is on ints.
UNIMPORTED = ("dataclasses", "inspect", "fractions", "decimal")

EVERY_SUBCOMMAND = [
    ["outcome", "3/4 + -5/8", "--json"],
    ["outcome", "{.|1}", "--normal"],
    ["lengths", "-3/4"],
    ["classify", "lambda(2)", "--json"],
    ["equiv", "*+*", "0", "--tests", "dead-ending:b1:k2", "--json"],
    ["compare", "1/2", "3/4", "--tests", "dead-ending:b1:k2"],
    ["compare", "1/2", "3/4", "--closed-form", "--json"],
    ["compare", "-1", "0", "--closed-form", "integers"],
    ["universe", "numbers:j2:v1:t1", "--list", "--json"],
    ["monoid", "--generators", "dyadics:j1:v1", "--terms", "2",
     "--tests", "numbers:j1:v1:t2", "--json"],
    ["monoid", "--generators", "ints:-1..1", "--terms", "2",
     "--tests", "dead-end-closure:b1:k1:t1"],
    ["verify", "all", "--b", "1", "--k", "1", "--t", "1", "--j", "1", "--v", "1",
     "--eb", "1", "--json"],
]


def test_no_subcommand_imports_the_costly_stdlib_modules():
    script = (
        "import contextlib, io, sys\n"
        "from deadending import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {EVERY_SUBCOMMAND!r}]\n"
        f"print((codes, [m for m in {UNIMPORTED!r} if m in sys.modules]))\n"
    )
    package_root = str(pathlib.Path(deadending.__file__).parents[1])
    path = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert child.returncode == 0, child.stderr
    codes, imported = ast.literal_eval(child.stdout)
    assert codes == [0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0], child.stderr
    assert imported == []
