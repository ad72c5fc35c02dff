"""Every figure the README quotes for a module constant equals the constant,
and the package root exports what the README says it does."""

import re
from pathlib import Path

import pytest

import rumorspread
from rumorspread import expansion, graph, protocols

# the README's line breaks folded to single spaces
README = " ".join((Path(__file__).parent.parent / "README.md").read_text().split())

# constant name -> (its value, README phrases quoting it as their one group)
QUOTES = {
    "_NUMPY_MIN_LINES": (
        graph._NUMPY_MIN_LINES,
        [r"A file of (\d+) lines or more is parsed with numpy"],
    ),
    "_ARRIVAL_BATCH": (protocols._ARRIVAL_BATCH, [r"fixed batches of (\d+) trials"]),
    "_SEEK_DOUBLES": (protocols._SEEK_DOUBLES, [r"a gap of at most (\d+) doubles"]),
    "_BLOCK_ELEMENTS": (expansion._BLOCK_ELEMENTS, [r"One budget of (2\^\d+) elements"]),
    "DEFAULT_ENUMERATION_LIMIT": (
        expansion.DEFAULT_ENUMERATION_LIMIT,
        [r"the limit is (\d+) nodes", r"It refuses graphs above (\d+) nodes unless"],
    ),
    "_MAX_ENUMERATION_NODES": (
        expansion._MAX_ENUMERATION_NODES,
        [r"graphs above (\d+) nodes whatever", r"up to (\d+) nodes\)"],
    ),
}


def _figure(text: str) -> int:
    base, _, exponent = text.partition("^")
    return int(base) ** int(exponent or 1)


@pytest.mark.parametrize("name", QUOTES)
def test_quoted_figures_match_the_code(name):
    value, phrases = QUOTES[name]
    for phrase in phrases:
        figures = re.findall(phrase, README)
        assert figures, f"the README no longer quotes {name} as {phrase!r}"
        assert [_figure(f) for f in figures] == [value] * len(figures), (name, phrase)


def test_root_exports_its_public_imports():
    ns: dict = {}
    exec("from rumorspread import *", ns)
    del ns["__builtins__"]
    names = rumorspread.__all__
    assert sorted(ns) == names == sorted(set(names))
    assert not [n for n in names if n.startswith("_") or isinstance(ns[n], type(rumorspread))]
    # each name the README keeps in its module (`rng.LANE_*` a prefix) is there, not at the root
    sentence = README.split("stay in their modules: ")[1].split(". ")[0]
    for module, name, star in re.findall(r"`(\w+)\.(\w+)(\*?)`", sentence):
        if module != "rumorspread":
            kept = [k for k in vars(getattr(rumorspread, module))
                    if k == name or star and k.startswith(name)]
            assert kept and not set(kept) & set(names), (module, name)
