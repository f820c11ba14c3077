"""README names only what the package has, every CLI subcommand and the golden gate's size."""

import argparse
import json
import re
from pathlib import Path

import dimerbath
from dimerbath.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _entry_point_bullets():
    section = README.read_text().split("Main entry points:", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- (.*?)(?=^- |\Z)", section, flags=re.M | re.S)


def _resolves(dotted):
    obj = dimerbath
    for part in dotted.split("."):
        fields = getattr(obj, "__dataclass_fields__", {})
        if part not in fields and not hasattr(obj, part):
            return False
        obj = getattr(obj, part, None)
    return True


def test_every_listed_entry_point_exists():
    bullets = _entry_point_bullets()
    assert len(bullets) >= 5
    for bullet in bullets:
        head = bullet.split(":", 1)[0]
        names = re.findall(r"`([^`]+)`", head)
        assert names, f"bullet names no entry point: {bullet[:40]!r}"
        for name in names:
            assert hasattr(dimerbath, name), f"README lists missing `{name}`"


def test_every_dotted_package_name_resolves():
    # `ThermalWeights.m1` in the text, say: a removed field shows up here
    for bullet in _entry_point_bullets():
        for dotted in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", bullet):
            if hasattr(dimerbath, dotted.split(".")[0]):
                assert _resolves(dotted), f"README names missing `{dotted}`"


def test_readme_cli_section_names_exactly_the_subcommands():
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    commands = set(subparsers.choices)
    examples = set(re.findall(r"\bdimer ([\w-]+)", section))
    assert examples <= commands, f"README runs no such subcommand: {examples - commands}"
    named = examples | set(re.findall(r"`([\w-]+)`", section))
    assert commands <= named, f"README's CLI section omits {commands - named}"


def test_readme_states_the_golden_gates_entry_count():
    digests = README.parent / "tests" / "golden" / "digests.json"
    entries = json.loads(digests.read_text())["entries"]
    [stated] = re.findall(r"the bit-identity gate: it recomputes (\d+)\s+recorded outputs",
                          README.read_text())
    assert int(stated) == len(entries)
