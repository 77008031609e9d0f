"""The README's library example runs as written, and its option table
states what the CLI's tables declare."""

import doctest
import re
from pathlib import Path

from accrgeo.cli import COMMANDS, OPTIONS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0


def _option_table():
    """(commands, {source: cells}) of the table after "Each source reads
    its own options", one cell per command."""
    lines = README.read_text(encoding="utf-8").split("Each source reads its own options")[1]
    rows = [line for line in lines.splitlines() if line.startswith("|")]
    split = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    header, _, *body = split
    commands = [re.match(r"`(\w+)`", cell).group(1) for cell in header[1:]]
    sources = {}
    for label, *cells in body:
        flags = label.strip("`").split()
        sources["input" if flags == ["--input"] else flags[1]] = cells
    return commands, sources


def test_readme_option_table_matches_options_and_commands():
    commands, sources = _option_table()
    assert sorted(commands) == sorted(COMMANDS)
    assert sorted(sources) == sorted({s for row in COMMANDS.values() for s in row[1].split()})
    for source, cells in sources.items():
        for command, cell in zip(commands, cells, strict=True):
            if source not in COMMANDS[command][1].split():
                assert cell in ("(not accepted)", "(no `--input`)"), (source, command)
                continue
            prefix = "--grid-" if command == "sweep" else "--"
            expected = {
                prefix + name.replace("_", "-")
                for name, (_, _, takers, readers) in OPTIONS.items()
                if command in takers.split() and source in readers.split()
            }
            flags = set() if cell == "none" else set(cell.replace("`", "").split())
            assert flags == expected, (source, command)
