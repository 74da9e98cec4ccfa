"""The package surface: every exported name resolves, once, and is one
the README documents; the operator contract sits in its own module, only
the mesh decodes face ids, and no module reads the environment."""

import ast
import importlib
import inspect
import os
import pkgutil
import re

import ehdg
import ehdg.driver
import ehdg.operators
import ehdg.shallow


def ehdg_imports(module):
    """Every ehdg module and module.name that the source of module
    imports, by full name, function-level imports included."""
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "ehdg." + base if base else "ehdg"
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return {name for name in found if name.startswith("ehdg.")}


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
    from ehdg.operators import LocalOperators
    from ehdg.problems import build_case, catalog
    from ehdg.shallow import ShallowOperators
    from ehdg.transport import TransportOperators

    shared = ("source", "rhs", "apply_pass", "pass_norms", "error_eval",
              "diff_norm", "skeleton_norm", "solve_cells", "split",
              "interpolate")
    for physics in (TransportOperators, ShallowOperators):
        assert issubclass(physics, LocalOperators)
        copies = [name for name in shared if name in physics.__dict__]
        assert not copies, (physics.__name__, copies)
        for name in ("element_matrix", "update_trace"):
            assert name in physics.__dict__, (physics.__name__, name)
    for ident in ("transport2d-smooth", "shallow-standing-wave"):
        ops, _state0 = build_case(catalog(ident), 2, 1)
        assert "load" in vars(ops), ident
        assert "boundary" in vars(ops), ident


def test_no_per_pass_method_takes_a_time():
    # the pass map is the same at every pass of a level: the time enters
    # through the level's source and boundary data alone
    from ehdg.shallow import ShallowOperators
    from ehdg.transport import TransportOperators

    for cls in (TransportOperators, ShallowOperators):
        for name in ("rhs", "solve_cells", "update_trace", "apply_pass"):
            params = inspect.signature(getattr(cls, name)).parameters
            assert "t" not in params, (cls.__name__, name, list(params))


def test_the_operator_contract_is_its_own_module():
    # each physics imports the contract; the contract imports no physics
    assert ehdg.LocalOperators.__module__ == "ehdg.operators"
    for module, others in ((ehdg.operators, ("transport", "shallow")),
                           (ehdg.shallow, ("transport",))):
        wrong = sorted(
            name for name in ehdg_imports(module) for other in others
            if name == f"ehdg.{other}" or name.startswith(f"ehdg.{other}."))
        assert not wrong, (module.__name__, wrong)


def test_readme_names_each_object_where_it_is_defined():
    # an `ehdg.<module>.<Name>` that the module only imports would still
    # resolve, so the check is where the class or function is defined
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        refs = set(re.findall(r"`ehdg\.(\w+)\.(\w+)", fh.read()))
    assert refs
    wrong = sorted(
        f"ehdg.{mod}.{name}" for mod, name in refs
        if getattr(getattr(importlib.import_module(f"ehdg.{mod}"), name, None),
                   "__module__", None) != f"ehdg.{mod}")
    assert not wrong, wrong


def test_only_the_mesh_decodes_face_ids():
    # the face numbering, its axis blocks and (plane, perp) within them, is
    # read in ehdg.mesh alone; every other module goes through the
    # element-to-face table etof and the face lists
    modules = [m.name for m in pkgutil.iter_modules(ehdg.__path__)]
    assert "mesh" in modules and "oracle" in modules
    readers = sorted(
        name for name in modules if name != "mesh"
        and re.search(r"\b(n_perp|perp_of|plane_of|n_faces_axis|face_index)\b",
                      inspect.getsource(
                          importlib.import_module(f"ehdg.{name}"))))
    assert not readers, readers


def test_no_module_reads_the_environment():
    # the library takes its settings from arguments alone (BLAS reads its
    # own variables), so no knob, a thread count say, comes in that way
    modules = ["ehdg"] + [f"ehdg.{m.name}"
                          for m in pkgutil.iter_modules(ehdg.__path__)]
    readers = sorted(
        name for name in modules
        if re.search(r"\b(environb?|getenv)\b",
                     inspect.getsource(importlib.import_module(name))))
    assert not readers, readers


def test_readme_memory_budgets_are_the_operators_budgets():
    # the budget bullets of README's Memory section name exactly the byte,
    # block and point budgets of ehdg.operators, with their values, so a
    # budget that is deleted or changed in the code cannot stay documented
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        memory = fh.read().split("\n## Memory\n", 1)[1].split("\n## ", 1)[0]
    units = {"": 1, " MiB": 2**20}
    documented = {
        name: int(value) * units[unit]
        for name, value, unit in re.findall(
            r"^- `(\w+)` \((\d+)( MiB)?\)", memory, flags=re.M)}
    budgets = {
        name: value for name, value in vars(ehdg.operators).items()
        if re.fullmatch(r"[A-Z_]+_(BYTES|CHUNK|POINTS)", name)}
    assert budgets
    assert documented == budgets


# names the package keeps only because the benchmark harness (perfbench/)
# reads them, by module; deleting them once the harness no longer does must
# be a pure deletion
BENCHMARK_ONLY = {
    "driver": ("volume_l2", "transport_error_eval", "transport_skeleton_norm"),
    "oracle": ("direct_solve_transport", "direct_solve_shallow",
               "shallow_flux_jump_residual"),
    "transport": ("TransportOperators.interpolate_exact",),
    "cli": ("default_workers",),
}


def test_benchmark_only_names_are_defined_and_never_used():
    last = {path.rsplit(".", 1)[-1]
            for paths in BENCHMARK_ONLY.values() for path in paths}
    for mod, paths in BENCHMARK_ONLY.items():
        for path in paths:
            obj = importlib.import_module(f"ehdg.{mod}")
            for part in path.split("."):
                obj = getattr(obj, part)
    uses = []
    for info in pkgutil.iter_modules(ehdg.__path__):
        source = inspect.getsource(importlib.import_module(f"ehdg.{info.name}"))
        for node in ast.walk(ast.parse(source)):
            # a read, an attribute access or an import; the definitions
            # are a def and assignments, which store
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in last:
                uses.append(f"ehdg.{info.name}:{node.lineno} {name}")
    assert not uses, uses
