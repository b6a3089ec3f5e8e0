"""Every public function and class in the package has a caller.

A public name defined at the top of a module in src/cvtypical must be
referenced in code, as a name or an attribute, somewhere in the package
outside its own definition, or in the benchmark under perfbench/, which
drives the package from outside.  Mentions in strings, comments, docstrings,
``__all__`` lists and import lines do not count: a name only tests or demos
call belongs in tests/ or goes.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from cvtypical import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cvtypical"


def _references(tree, skip=None) -> set:
    """The names loaded and the attributes read anywhere in tree, outside
    the node skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _trees(directory: Path) -> dict:
    return {path: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


SOURCES = _trees(PACKAGE)
OUTSIDE = set().union(*map(_references, _trees(ROOT / "perfbench").values()))
PUBLIC = [
    (path, node)
    for path, tree in SOURCES.items()
    for node in tree.body
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
]


def test_the_package_defines_public_names():
    assert len(PUBLIC) > 20


def test_only_the_root_lists_its_names():
    """A module's public names are those without a leading underscore, as
    test_public_name_has_a_caller reads them; only __init__ keeps an
    __all__, its list of re-exports."""
    listing = [
        path.name
        for path, tree in SOURCES.items()
        for node in tree.body
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Name) and target.id == "__all__"
    ]
    assert listing == ["__init__.py"]


@pytest.mark.parametrize(
    "path, node", PUBLIC, ids=[f"{path.stem}.{node.name}" for path, node in PUBLIC]
)
def test_public_name_has_a_caller(path, node):
    used = set(OUTSIDE)
    for other, tree in SOURCES.items():
        used |= _references(tree, skip=node if other == path else None)
    assert node.name in used, f"{path.name}: {node.name} has no caller in src/ or perfbench/"


DRAWS = {"standard_normal", "standard_exponential"}


def _draw_sites(tree, scope="") -> set:
    """The (scope, method) of every call of a DRAWS method in tree, scope
    the dotted name of the innermost enclosing function or class."""
    sites = set()
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in DRAWS:
            sites.add((scope, node.func.attr))
        sites |= _draw_sites(node, inner)
    return sites


def test_draws_are_laid_out_in_draw_block_only():
    """A stream's Gaussian and exponential draws are taken in one place, so
    every trial of a seed draws the same bits, and a draw of its spectrum
    alone (k = 0) the same spectrum."""
    sites = {
        (f"{path.stem}.{scope}", method)
        for path, tree in SOURCES.items()
        for scope, method in _draw_sites(tree)
    }
    assert sites == {("harness.draw_block", method) for method in DRAWS}


def test_the_cli_reads_each_value_in_one_place():
    """argparse only splits the command line: no add_argument call reads a
    value (type=) or restricts it (choices=), no set_defaults lays the
    config file into the parser, and argv is parsed once.  Each value, a
    flag's text or a config file's JSON value, then has one reader: its
    option's check."""
    calls = [
        node
        for node in ast.walk(SOURCES[PACKAGE / "cli.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    methods = [call.func.attr for call in calls]
    assert "set_defaults" not in methods
    assert methods.count("parse_args") == 1
    keywords = {kw.arg for call in calls if call.func.attr == "add_argument" for kw in call.keywords}
    assert "help" in keywords and not keywords & {"type", "choices"}


def test_every_option_and_subcommand_has_one_home():
    """Each option is a flag of some subcommand and each RunConfig field but
    subcommand and scaling (read from the four scaling options) is an
    option, and README's subcommand table and cli.py's docstring list
    exactly the subcommands, so a half-done removal leaves nothing behind."""
    dests = {dest for sub in cli._SUBCOMMANDS for dest in cli._dests(sub)}
    assert set(cli._OPTIONS) == dests
    assert {field.name for field in fields(cli.RunConfig)} - {"subcommand", "scaling"} <= set(cli._OPTIONS)
    docstring = cli.__doc__.split("Subcommands:\n")[1].split("\n\n")[0]
    assert [line.split()[0] for line in docstring.splitlines()] == list(cli._SUBCOMMANDS)
    table = re.findall(r"^\| `([a-z-]+)` \|", (ROOT / "README.md").read_text(), re.M)
    assert table == list(cli._SUBCOMMANDS)
