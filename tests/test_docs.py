"""The README's numbered sections of "How the pipeline works" and the tests
and docstrings that point at them.

Each identity of the chain is derived in one numbered section, which names
the tests that check it as ``tests/<file>.py::<name>``. These tests fail
when a cited test no longer exists, when a numbered section cites none,
or when a docstring cites a section that is not there, as
``tests/test_api.py`` pins the public names.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
# A parametrize id such as [reference] ends the name, so it is stripped.
CITATION = re.compile(r"tests/(\w+\.py)::(\w+)")


def numbered_sections(text: str) -> dict[int, str]:
    """Each numbered section of "How the pipeline works", by its number:
    the text from its "### <n>. " heading to the next heading."""
    body = text.split("\n## How the pipeline works\n", 1)[1].split("\n## ", 1)[0]
    sections = {}
    for part in re.split(r"\n(?=### )", body):
        match = re.match(r"### (\d+)\. ", part)
        if match:
            sections[int(match.group(1))] = part
    return sections


def top_level_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


SECTIONS = numbered_sections(README)


def test_the_sections_are_numbered_one_to_ten():
    assert sorted(SECTIONS) == list(range(1, 11))


@pytest.mark.parametrize("number", sorted(SECTIONS))
def test_every_numbered_section_cites_a_test(number):
    assert CITATION.search(SECTIONS[number]), f"section {number} cites no test"


def test_every_cited_test_exists():
    citations = CITATION.findall(README)
    assert citations
    missing = [f"tests/{file}::{name}" for file, name in citations
               if not (ROOT / "tests" / file).is_file()
               or name not in top_level_functions(ROOT / "tests" / file)]
    assert not missing, missing


def test_every_section_a_docstring_cites_exists():
    cited = {(path.name, int(number))
             for path in sorted((ROOT / "src" / "paprsim").glob("*.py"))
             for number in re.findall(r"README section (\d+)",
                                      re.sub(r"\s+", " ", path.read_text(encoding="utf-8")))}
    assert cited
    assert not [(name, number) for name, number in cited if number not in SECTIONS]
