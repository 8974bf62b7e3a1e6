"""Source layout checks that need no linter: every line of the package
holds to PEP 8's 79 characters."""

from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "glmpca").glob("*.py"))


def test_source_lines_fit_79_characters():
    assert SOURCES
    too_long = [f"{path.name}:{n} has {len(line)}"
                for path in SOURCES
                for n, line in enumerate(path.read_text().splitlines(), 1)
                if len(line) > 79]
    assert too_long == []
