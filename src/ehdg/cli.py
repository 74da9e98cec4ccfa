"""Command-line front end: solve / study / tables / verify.

Configuration is plain key=value text, either in a file (one pair per line,
'#' comments) or as trailing command-line tokens; the tokens win. Each
command accepts only the keys it reads (_COMMANDS). Outputs
are CSV files plus plain-text field dumps, deterministic for a fixed input.

Exit codes: 0 success, 1 usage error, 2 non-convergence, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from .driver import (
    ERROR_DIFFERENCE,
    STOPPING_MODES,
    SUCCESSIVE_DIFFERENCE,
    ConvergenceFailure,
    IterationConfig,
    solve,
)
from .mesh import MeshError
from .operators import AssemblyError, usable_cpus
from .oracle import OracleSizeError, verify_cell
from .problems import (
    build_case,
    case_identifiers,
    catalog,
    convergence_study,
    run_cell,
    time_levels,
)
# perfbench/child.py hooks the operator constructors through these names
from .shallow import ShallowOperators  # noqa: F401
from .transport import TransportOperators  # noqa: F401

FMT = "%.17g"


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    case: str = "transport2d-smooth"
    nel: tuple = (16,)
    p: int = 1
    dt: float | None = None
    steps: int | None = None
    stopping: str = ERROR_DIFFERENCE
    tol: float = 1e-10
    max_iters: int | None = None
    outdir: str = "."
    nels: tuple | None = None
    ps: tuple | None = None
    table: str = "both"


# the thread count of the solve_cells pool; kept because perfbench/gate.py
# reads it for its run manifest
default_workers = usable_cpus


# -- key=value parsing ---------------------------------------------------------


def _int_list(key, raw):
    # an empty entry (nel=4,,4 or nel=,4) fails int() like any other
    try:
        vals = tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        raise UsageError(f"malformed value for {key}: {raw!r}")
    if any(v < 1 for v in vals):
        raise UsageError(f"{key} entries must be positive integers: {raw!r}")
    return vals


def _positive_int(key, raw):
    try:
        v = int(raw)
    except ValueError:
        raise UsageError(f"malformed value for {key}: {raw!r}")
    if v < 1:
        raise UsageError(f"{key} must be a positive integer, got {raw!r}")
    return v


def _positive_float(key, raw):
    try:
        v = float(raw)
    except ValueError:
        raise UsageError(f"malformed value for {key}: {raw!r}")
    if not (v > 0) or not math.isfinite(v):
        raise UsageError(f"{key} must be a positive number, got {raw!r}")
    return v


def _case_name(key, raw):
    if raw not in case_identifiers():
        raise UsageError(
            f"unknown case {raw!r} (known: {', '.join(case_identifiers())})"
        )
    return raw


def _stopping(key, raw):
    if raw not in STOPPING_MODES:
        raise UsageError(
            f"unknown stopping mode {raw!r} (known: {', '.join(STOPPING_MODES)})"
        )
    return raw


def _table_choice(key, raw):
    if raw not in ("1", "2", "both"):
        raise UsageError(f"table must be 1, 2, or both, got {raw!r}")
    return raw


_KEYS = {
    "case": _case_name,
    "nel": _int_list,
    "p": _positive_int,
    "dt": _positive_float,
    "steps": _positive_int,
    "stopping": _stopping,
    "tol": _positive_float,
    "max_iters": _positive_int,
    "outdir": lambda key, raw: raw,
    "nels": _int_list,
    "ps": _int_list,
    "table": _table_choice,
}


def parse_kv_lines(lines, origin, comments=True):
    """key=value pairs of lines; with comments, '#' starts a comment."""
    pairs = {}
    for i, line in enumerate(lines, start=1):
        text = (line.split("#", 1)[0] if comments else line).strip()
        if not text:
            continue
        if "=" not in text:
            raise UsageError(f"{origin}:{i}: expected key=value, got {text!r}")
        key, _, raw = text.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            raise UsageError(f"{origin}:{i}: unknown key {key!r}")
        pairs[key] = raw
    return pairs


def parse_config(command, config_path=None, overrides=()):
    """Merge file pairs and override tokens into a validated RunConfig."""
    pairs = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                pairs.update(parse_kv_lines(fh, config_path))
        except OSError as err:
            raise UsageError(f"cannot read config file: {err}")
    pairs.update(parse_kv_lines(overrides, "argument", comments=False))
    cfg = RunConfig(command=command)
    for key, raw in pairs.items():
        if key not in _COMMANDS[command][1].split():
            raise UsageError(f"{command} does not read {key}=")
        setattr(cfg, key, _KEYS[key](key, raw))
    return cfg


def iteration_config(cfg):
    return IterationConfig(
        tol=cfg.tol,
        stopping=cfg.stopping,
        max_iters=cfg.max_iters,
    )


# -- solve ----------------------------------------------------------------------


def _nel(cfg):
    return cfg.nel if len(cfg.nel) > 1 else cfg.nel[0]


def _out(cfg, suffix):
    nel = "x".join(str(n) for n in cfg.nel)
    return os.path.join(cfg.outdir, f"{cfg.case}-p{cfg.p}-nel{nel}-{suffix}")


def write_field_dump(path, cfg, mesh, basis, named_fields):
    with open(path, "w") as fh:
        fh.write("# element nodal field dump\n")
        fh.write(f"# case={cfg.case}\n")
        nel = ",".join(str(n) for n in mesh.nel)
        names = ",".join(name for name, _vals in named_fields)
        fh.write(f"# dim={mesh.dim} nel={nel} p={basis.p} fields={names}\n")
        fh.write(
            "# nodes: tensor-product Gauss-Lobatto, axis 0 fastest;"
            " elements lexicographic, axis 0 fastest\n"
        )
        fh.write("# row: element index then nodal values per field\n")
        for e in range(mesh.n_el):
            cells = [str(e)]
            for _name, vals in named_fields:
                cells.extend(FMT % v for v in vals[e])
            fh.write(" ".join(cells) + "\n")


def _write_steps_csv(path, logs):
    """One row per time level: the time it was solved at, its passes and
    the error of its last iterate."""
    with open(path, "w") as fh:
        fh.write("step,time,iterations,error_vs_exact\n")
        for m, log in enumerate(logs, start=1):
            e = log.errors[-1]
            cell = "" if math.isnan(e) else FMT % e
            fh.write(f"{m},{FMT % log.t},{log.iterations},{cell}\n")


def cmd_solve(cfg):
    case = catalog(cfg.case)
    if cfg.stopping == ERROR_DIFFERENCE and case.problem.exact is None:
        valid = [m for m in STOPPING_MODES if m != ERROR_DIFFERENCE]
        raise UsageError(
            f"case {cfg.case} has no exact solution, so stopping="
            f"{ERROR_DIFFERENCE} cannot be used (valid: {', '.join(valid)})"
        )
    try:
        dt, steps = time_levels(case, cfg.dt, cfg.steps)
    except ValueError as err:
        raise UsageError(str(err)) from None
    ops, state0 = build_case(case, _nel(cfg), cfg.p, dt)
    state, _trace, logs = solve(ops, iteration_config(cfg), state0, steps)
    # the error of the returned state, as the solve's norms took it
    error = logs[-1].errors[-1]
    counts = [log.iterations for log in logs]
    if ops.dt is not None:
        _write_steps_csv(_out(cfg, "steps.csv"), logs)
    with open(_out(cfg, "convergence.csv"), "w") as fh:
        logs[-1].write_csv(fh)
    fields = list(zip(ops.fields, ops.split(state)))
    write_field_dump(_out(cfg, "field.txt"), cfg, ops.mesh, ops.basis, fields)
    if ops.dt is None:
        summary, err_label = f"{counts[0]} iterations", "error"
        failure = "did not converge within the iteration cap"
    else:
        summary = (f"{len(counts)} steps, iterations/step "
                   f"{min(counts)}..{max(counts)}")
        err_label = "final error"
        failure = f"step {len(logs)} did not converge within the iteration cap"
    if not math.isnan(error):
        summary += f", {err_label} {error:.3e}"
    print(f"{cfg.case}: nel={ops.mesh.nel} p={ops.basis.p} -> {summary}")
    if not logs[-1].converged:
        print(failure, file=sys.stderr)
        return 2
    return 0


# -- study ----------------------------------------------------------------------


_STUDY_DEFAULTS = {
    "transport2d-smooth": ((4, 8, 16, 32), (1, 2, 3, 4)),
    "transport3d-steady": ((2, 4, 8, 16), (1, 2, 3)),
    "shallow-standing-wave": ((4, 8, 16), (1, 2, 3)),
    "transport3d-gaussian": ((4, 8), (1, 2)),
}


def cmd_study(cfg):
    case = catalog(cfg.case)
    defaults = _STUDY_DEFAULTS.get(cfg.case, ((4, 8, 16), (1, 2)))
    nels = cfg.nels if cfg.nels is not None else defaults[0]
    ps = cfg.ps if cfg.ps is not None else defaults[1]
    config = iteration_config(cfg)
    try:
        rows = convergence_study(case, nels, ps, config=config, dt=cfg.dt,
                                 n_steps=cfg.steps)
    except ValueError as err:
        # a study's ValueErrors refuse its arguments (a case without an
        # exact solution, a repeated mesh, its time levels)
        raise UsageError(str(err)) from None
    path = os.path.join(cfg.outdir, f"{cfg.case}-study.csv")
    with open(path, "w") as fh:
        fh.write("case,p,nel,h,error,order,iterations\n")
        for r in rows:
            order = "" if math.isnan(r.order) else FMT % r.order
            fh.write(
                f"{cfg.case},{r.p},{r.nel},{FMT % r.h},{FMT % r.error},"
                f"{order},{r.iterations}\n"
            )
    for r in rows:
        otxt = "" if math.isnan(r.order) else f" order {r.order:.2f}"
        print(
            f"p={r.p} nel={r.nel}: error {r.error:.3e}{otxt} "
            f"({r.iterations} iterations)"
        )
    print(f"wrote {path}")
    return 0


# -- tables ----------------------------------------------------------------------


TABLE1_GRID = (                    # (case, nel per axis)
    ("transport2d-smooth", (4, 8, 16, 32)),         # 16..1024 elements
    ("transport2d-discontinuous", (4, 8, 16, 32)),
    ("transport3d-steady", (2, 4, 8, 16)),          # 8..4096 elements
)
TABLE2_GRID = (
    ("shallow-standing-wave", (4, 8, 16, 32)),
    ("transport3d-gaussian", (2, 4, 8, 16)),
)
TABLE2_DTS = (1e-3, 1e-4)
TABLE_PS = (1, 2, 3, 4)
TABLE2_STEPS = 10


def _table_cells(table, nels=None, ps=None):
    """(case, nel, p, dt, config) of each cell of table "1" or "2", in row
    order; nels and ps replace the table's own sweeps.

    Cases without an exact solution stop on the successive difference.
    """
    grid, dts = ((TABLE1_GRID, (None,)) if table == "1"
                 else (TABLE2_GRID, TABLE2_DTS))
    for ident, table_nels in grid:
        case = catalog(ident)
        stopping = (SUCCESSIVE_DIFFERENCE if case.problem.exact is None
                    else ERROR_DIFFERENCE)
        config = IterationConfig(stopping=stopping)
        for p in ps or TABLE_PS:
            for n in nels or table_nels:
                for dt in dts:
                    yield case, n, p, dt, config


def cmd_tables(cfg):
    if cfg.table == "1" and cfg.steps is not None:
        raise UsageError("tables does not read steps= with table=1; "
                         "only table 2 steps")
    wrote = [_write_table(cfg, t) for t in ("1", "2")
             if cfg.table in (t, "both")]
    for path in wrote:
        print(f"wrote {path}")
    return 0


def _write_table(cfg, table):
    # table 1 is steady: its cells take no step count
    steps = None if table == "1" else cfg.steps or TABLE2_STEPS
    path = os.path.join(cfg.outdir, f"table{table}-iterations.csv")
    with open(path, "w") as fh:
        fh.write("case,nel,p,iterations\n" if table == "1"
                 else "case,nel,p,dt,steps,iterations_per_step\n")
        for case, n, p, dt, config in _table_cells(table, cfg.nels, cfg.ps):
            _ops, logs = run_cell(case, n, p, config, dt, steps)
            # startup steps can differ; table 2 reports the settled count
            count = logs[-1].iterations
            ident, cell = case.identifier, f"{n ** case.dim},{p}"
            label = f"{ident} nel={n}^{case.dim} p={p}"
            if dt is None:
                fh.write(f"{ident},{cell},{count}\n")
                print(f"{label}: {count}")
            else:
                fh.write(f"{ident},{cell},{FMT % dt},{steps},{count}\n")
                print(f"{label} dt={dt:g}: {count} iterations/step")
    return path


# -- verify ----------------------------------------------------------------------


def cmd_verify(cfg):
    # successive-difference bounds the distance to the fixed point, which
    # is what the comparison against the direct solve needs
    config = IterationConfig(
        tol=min(cfg.tol, 1e-12),
        stopping=SUCCESSIVE_DIFFERENCE,
    )
    checks = verify_cell(catalog(cfg.case), _nel(cfg), cfg.p, cfg.dt, config)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    return 0 if all(ok for _name, ok, _detail in checks) else 3


# -- entry point -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(
        prog="ehdg",
        description=(
            "Element-local fixed-point solver for hybridized DG transport "
            "and linearized shallow water problems."
        ),
    )
    parser.add_argument(
        "command", choices=("solve", "study", "tables", "verify"),
    )
    parser.add_argument(
        "overrides", nargs="*", metavar="key=value",
        help="configuration pairs; these override the config file",
    )
    parser.add_argument(
        "-c", "--config", default=None, metavar="FILE",
        help="key=value configuration file ('#' comments)",
    )
    return parser


# each command and the keys it reads; any other key is a usage error
_COMMANDS = {
    "solve": (cmd_solve,
              "case nel p dt steps stopping tol max_iters outdir"),
    "study": (cmd_study,
              "case nels ps dt steps stopping tol max_iters outdir"),
    "tables": (cmd_tables, "table nels ps steps outdir"),
    "verify": (cmd_verify, "case nel p dt tol"),
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = parse_config(args.command, args.config, args.overrides)
        # before any work, so an unusable outdir costs no solve
        try:
            os.makedirs(cfg.outdir, exist_ok=True)
        except OSError as err:
            raise UsageError(f"cannot create outdir: {err}") from None
        return _COMMANDS[cfg.command][0](cfg)
    except (UsageError, MeshError, AssemblyError, OracleSizeError) as err:
        # a mesh or local operators that cannot fit or cannot be built (a
        # singular one, say), or a verify cell too large for the dense
        # oracle, is an input the command refuses, not a crash
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except ConvergenceFailure as err:
        print(f"non-convergence: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
