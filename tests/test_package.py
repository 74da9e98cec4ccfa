"""The package surface: every exported name resolves, once."""

import ehdg


def test_all_names_resolve_and_are_unique():
    names = ehdg.__all__
    assert len(names) == len(set(names)), sorted(
        n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(ehdg, n)]
    assert not missing, missing
