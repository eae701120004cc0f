"""The CLI surface, checked by machine: every (sub)parser's argparse
actions compared with a committed snapshot.

``tests/cli_surface.json`` was generated at the commit *before*
``build_parser`` was split into per-verb registrars, so a refactor of
the parser that drops, renames or re-defaults anything fails here. It
dumps actions, not ``format_help()``, so it does not depend on the
terminal width or on which Python minor formats the usage line.

An intended change to the surface regenerates the snapshot::

    PYTHONPATH=src python tests/test_cli_surface.py > tests/cli_surface.json
"""

import argparse
import json
import pathlib

from repro.cli import build_parser

SNAPSHOT = pathlib.Path(__file__).with_name("cli_surface.json")


def _plain(value):
    """A JSON-stable form of an action attribute."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple, range)):
        return [_plain(item) for item in value]
    return getattr(value, "__name__", None) or repr(value)


def dump_surface(parser: argparse.ArgumentParser, path: str = "repro") -> dict:
    """Flat ``{"<command path> <option or dest>": attributes}`` of a
    parser and, recursively, its sub-parsers; the entry keyed by the
    bare command path holds the parser's own description, defaults and
    sub-command help strings."""
    own = {
        "description": parser.description,
        "defaults": {key: _plain(value)
                     for key, value in sorted(parser._defaults.items())},
    }
    surface = {path: own}
    for position, action in enumerate(parser._actions):
        if isinstance(action, argparse._SubParsersAction):
            own["subcommands"] = {
                "dest": action.dest,
                "required": action.required,
                "help": {choice.dest: choice.help
                         for choice in action._choices_actions},
            }
            for name, child in action.choices.items():
                surface.update(dump_surface(child, f"{path} {name}"))
            continue
        attributes = {
            "position": position,
            "kind": type(action).__name__,
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": _plain(action.default),
            "const": _plain(action.const),
            "type": _plain(action.type),
            "choices": _plain(action.choices),
            "required": action.required,
            "nargs": action.nargs,
            "metavar": _plain(action.metavar),
            "help": action.help,
        }
        name = "/".join(action.option_strings) or action.dest
        surface[f"{path} {name}"] = {
            key: value for key, value in attributes.items()
            if value is not None
        }
    return surface


def test_cli_surface_matches_the_committed_snapshot():
    current = dump_surface(build_parser())
    # through JSON once, so tuples/lists compare as the file stores them
    current = json.loads(json.dumps(current))
    expected = json.loads(SNAPSHOT.read_text())
    assert current == expected


def test_parser_choices_are_the_registries_names():
    """The parser reads each registry's names without importing what
    they name; the lists are the registries' own, not copies."""
    from repro.algorithms import ALGORITHMS
    from repro.bench.workloads import ENGINE_NAMES
    from repro.graph.datasets import DATASETS
    from repro.partition.partitioners import PARTITIONERS

    surface = dump_surface(build_parser())
    for verb in ("run", "compare", "profile", "runs record"):
        choices = {option: surface[f"repro {verb} --{option}"]["choices"]
                   for option in ("algorithm", "graph", "partitioner")}
        assert choices == {"algorithm": sorted(ALGORITHMS),
                           "graph": list(DATASETS),
                           "partitioner": sorted(PARTITIONERS)}
    for verb in ("run", "profile", "runs record"):
        engines = surface[f"repro {verb} --engine"]["choices"]
        assert engines[:len(ENGINE_NAMES)] == list(ENGINE_NAMES)


if __name__ == "__main__":  # pragma: no cover
    # one entry per line: a changed option is a one-line diff
    print("{\n" + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(dump_surface(build_parser()).items())
    ) + "\n}")
