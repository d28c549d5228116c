"""Every `ExperimentConfig` field is read somewhere: each must appear as
`cfg.<field>` (`self.cfg.<field>` included) or `sub.<field>` in
`src/nonstat_rl` outside the dataclass itself, so a field that nothing reads
fails the suite."""

import ast
import dataclasses
import pathlib

from nonstat_rl.harness import ExperimentConfig

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "nonstat_rl").glob("*.py"))
CONFIG_NAMES = {"cfg", "sub"}


def is_config(node):
    """`cfg`, `sub` or `<anything>.cfg`."""
    return (isinstance(node, ast.Name) and node.id in CONFIG_NAMES
            or isinstance(node, ast.Attribute) and node.attr == "cfg")


def config_reads(tree):
    """Attribute names read off a config in `tree`, leaving out the body of
    the `ExperimentConfig` class."""
    skip = {id(node) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == ExperimentConfig.__name__
            for node in ast.walk(cls)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and id(node) not in skip
            and is_config(node.value)}


def test_every_config_field_is_read():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert len(fields) > 20
    read = set().union(*(config_reads(ast.parse(path.read_text())) for path in SOURCES))
    unread = sorted(fields - read)
    assert not unread, f"config fields nothing reads as cfg.<field>: {unread}"
