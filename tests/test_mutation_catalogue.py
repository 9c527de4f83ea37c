"""Every entry of the mutation catalogue still applies to the tree.

A refactor that rewrites or moves a catalogued line would otherwise
orphan its entry unnoticed until the catalogue is next run.
"""

from pathlib import Path

import pytest

from mutation_catalogue import CATALOGUE

ROOT = Path(__file__).resolve().parent.parent


def test_entry_names_are_unique():
    names = [m.name for m in CATALOGUE]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("m", CATALOGUE, ids=lambda m: m.name)
def test_entry_old_text_occurs_once(m):
    assert m.new != m.old
    assert (ROOT / m.path).read_text().count(m.old) == 1
