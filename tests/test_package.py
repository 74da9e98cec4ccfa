"""The package surface: every exported name resolves, once, and is one
the README documents."""

import inspect
import os
import re

import ehdg
import ehdg.driver


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


def test_driver_reads_only_the_operator_contract():
    # the README's driver contract lists every operator attribute that
    # ehdg.driver reads, so "the driver calls nothing else" stays true
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    paragraph = readme.split("**Driver contract.**", 1)[1].split("\n\n", 1)[0]
    contract = set(re.findall(r"`(\w+)`", paragraph))
    reads = set(re.findall(r"\bops\.(\w+)", inspect.getsource(ehdg.driver)))
    assert reads, "no ops reads found"
    assert reads <= contract, sorted(reads - contract)
