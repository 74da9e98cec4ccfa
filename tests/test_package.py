"""The package surface: every exported name resolves, once, and is one
the README documents."""

import os
import re

import ehdg


def test_all_names_resolve_and_are_unique():
    names = ehdg.__all__
    assert len(names) == len(set(names)), sorted(
        n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(ehdg, n)]
    assert not missing, missing


def test_every_exported_name_is_documented():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    missing = [n for n in ehdg.__all__ if not re.search(rf"\b{n}\b", readme)]
    assert not missing, missing
