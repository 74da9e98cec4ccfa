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


def test_each_physics_writes_only_its_own_rules():
    # the shared rules live once, in LocalOperators; a physics supplies
    # element_matrix and update_trace and names its load as data
    from ehdg.problems import build_case, catalog
    from ehdg.shallow import ShallowOperators
    from ehdg.transport import LocalOperators, TransportOperators

    shared = ("source", "rhs", "pass_norms", "error_eval", "diff_norm",
              "skeleton_norm", "solve_cells", "split", "interpolate")
    for physics in (TransportOperators, ShallowOperators):
        assert issubclass(physics, LocalOperators)
        copies = [name for name in shared if name in physics.__dict__]
        assert not copies, (physics.__name__, copies)
        for name in ("element_matrix", "update_trace"):
            assert name in physics.__dict__, (physics.__name__, name)
    for ident in ("transport2d-smooth", "shallow-standing-wave"):
        ops, _state0 = build_case(catalog(ident), 2, 1)
        assert "load" in vars(ops), ident
