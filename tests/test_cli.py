"""Command-line interface: parsing, exit codes, and output files."""

import io

import pytest

from ehdg.cli import UsageError, main, parse_config, parse_kv_lines


# -- key=value parsing ---------------------------------------------------------


def test_kv_lines_skip_comments_and_blanks():
    lines = [
        "# full comment",
        "",
        "   ",
        "case=transport2d-smooth   # trailing comment",
        " p = 3 ",
    ]
    pairs = parse_kv_lines(lines, "test")
    assert pairs == {"case": "transport2d-smooth", "p": "3"}


def test_kv_lines_unknown_key_names_origin_and_line():
    with pytest.raises(UsageError, match=r"myfile:2: unknown key 'bogus'"):
        parse_kv_lines(["p=1", "bogus=7"], "myfile")


def test_kv_lines_missing_equals_names_origin_and_line():
    with pytest.raises(UsageError, match=r"myfile:1: expected key=value"):
        parse_kv_lines(["just a token"], "myfile")


def test_parse_config_defaults():
    cfg = parse_config("solve")
    assert cfg.command == "solve"
    assert cfg.case == "transport2d-smooth"
    assert cfg.nel == (16,)
    assert cfg.p == 1
    assert cfg.dt is None and cfg.steps is None
    assert cfg.stopping == "error-difference"
    assert cfg.tol == 1e-10
    assert cfg.table == "both"


def test_parse_config_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# header\ncase=transport2d-smooth\nnel=4\np=2\ntol=1e-8\n")
    cfg = parse_config("solve", str(path), ["p=1"])
    assert cfg.p == 1          # override wins
    assert cfg.tol == 1e-8     # file value survives
    assert cfg.nel == (4,)


def test_parse_config_missing_file():
    with pytest.raises(UsageError, match="cannot read config file"):
        parse_config("solve", "/nonexistent/run.cfg")


@pytest.mark.parametrize(
    "token",
    ["p=0", "tol=-1", "tol=nope", "stopping=bogus", "case=unknown-case",
     "nel=0", "table=3", "frob=1"],
)
def test_bad_tokens_exit_1(token, capsys):
    assert main(["solve", token]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["nel", "nels", "ps"])
@pytest.mark.parametrize("raw", ["4,,4", ",4", "4,", ""])
def test_empty_list_entries_are_malformed(key, raw, capsys):
    # an empty entry is refused, not dropped: nel=4,,4 is not nel=4,4
    command = "solve" if key == "nel" else "study"
    with pytest.raises(UsageError, match=f"malformed value for {key}: "):
        parse_config(command, None, [f"{key}={raw}"])
    assert main([command, f"{key}={raw}"]) == 1
    assert "usage error: malformed value for" in capsys.readouterr().err


def test_bad_table_choice_exit_1(capsys):
    # `solve table=3` above is refused as an unread key; tables reads it
    assert main(["tables", "table=3"]) == 1
    assert "table must be 1, 2, or both" in capsys.readouterr().err


def test_workers_key_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # the local solves pick their thread pool themselves; no command
    # takes a worker count
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "case=transport2d-smooth", "nel=4", "p=1",
                 "workers=2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "'workers'" in err
    assert not list(tmp_path.iterdir())


def test_hash_in_a_token_is_part_of_the_value(tmp_path):
    # '#' starts a comment in a -c file only
    rc = main(["solve", "case=transport2d-smooth", "nel=2", "p=1",
               f"outdir={tmp_path}/run#1"])
    assert rc == 0
    assert (tmp_path / "run#1").is_dir()
    assert not (tmp_path / "run").exists()
    with pytest.raises(UsageError, match="unknown case"):
        parse_config("solve", overrides=["case=transport2d-smooth#x"])


# -- solve ----------------------------------------------------------------------


def test_solve_steady_writes_outputs(tmp_path):
    rc = main([
        "solve", "case=transport2d-smooth", "nel=4", "p=1",
        f"outdir={tmp_path}",
    ])
    assert rc == 0
    conv = tmp_path / "transport2d-smooth-p1-nel4-convergence.csv"
    field = tmp_path / "transport2d-smooth-p1-nel4-field.txt"
    assert conv.is_file() and field.is_file()
    lines = conv.read_text().splitlines()
    assert lines[0] == "iteration,error_vs_exact,successive_diff,skeleton_norm"
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert field.stat().st_size > 0


def test_solve_reruns_byte_identical(tmp_path):
    args = ["solve", "case=transport2d-smooth", "nel=4", "p=2"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + [f"outdir={out_a}"]) == 0
    assert main(args + [f"outdir={out_b}"]) == 0
    name = "transport2d-smooth-p2-nel4-convergence.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_solve_iteration_cap_exit_2(tmp_path, capsys):
    rc = main([
        "solve", "case=transport2d-smooth", "nel=4", "p=1",
        "max_iters=3", f"outdir={tmp_path}",
    ])
    assert rc == 2
    assert "did not converge" in capsys.readouterr().err


def test_solve_diverging_level_exit_2(tmp_path, capsys):
    # an expanding pass map stops on its growing successive difference,
    # long before the 200-pass cap
    rc = main(["solve", "case=shallow-standing-wave", "nel=2", "p=2",
               "dt=0.1", "steps=1", f"outdir={tmp_path}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: pass 41: the successive "
                          "difference grew 10 passes in a row")
    assert err.rstrip().endswith("the iteration diverges")


def test_solve_transient_writes_steps_csv(tmp_path):
    rc = main([
        "solve", "case=shallow-standing-wave", "nel=4", "p=1",
        "dt=1e-3", "steps=3", f"outdir={tmp_path}",
    ])
    assert rc == 0
    steps = tmp_path / "shallow-standing-wave-p1-nel4-steps.csv"
    lines = steps.read_text().splitlines()
    assert lines[0] == "step,time,iterations,error_vs_exact"
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert int(last[0]) == 3
    assert abs(float(last[1]) - 3e-3) < 1e-15


def test_steps_csv_times_are_the_solve_times(tmp_path, monkeypatch):
    # each row's time is the one its level was solved at, as the exact
    # solution saw it: at dt=1e-4, levels 7, 14, ... are solved at
    # 6 dt + dt, which is one ulp away from 7 * dt
    from ehdg.problems import catalog

    problem = catalog("transport3d-gaussian").problem
    exact, times = problem.exact, []

    def recording(pts, t=0.0):
        times.append(t)
        return exact(pts, t)

    monkeypatch.setattr(problem, "exact", recording)
    rc = main(["solve", "case=transport3d-gaussian", "nel=1", "p=1",
               "dt=1e-4", "steps=50", f"outdir={tmp_path}"])
    assert rc == 0
    steps = tmp_path / "transport3d-gaussian-p1-nel1-steps.csv"
    rows = steps.read_text().splitlines()[1:]
    written = [float(row.split(",")[1]) for row in rows]
    # the initial state is interpolated at t = 0, then each level's norms
    # sample the exact solution at its own time
    assert sorted(set(times)) == [0.0] + written
    assert 7e-4 not in written


@pytest.mark.parametrize("case, nel", [("transport3d-gaussian", 2),
                                       ("shallow-standing-wave", 4)])
def test_solve_transient_stops_at_failed_step(tmp_path, capsys, case, nel):
    from ehdg.driver import IterationConfig, solve
    from ehdg.problems import build_case, catalog

    # one pass cannot satisfy error-difference stopping, so step 1 fails
    rc = main(["solve", f"case={case}", f"nel={nel}", "p=1", "dt=1e-3",
               "steps=3", "max_iters=1", f"outdir={tmp_path}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "step 1 did not converge within the iteration cap" in err
    prefix = f"{case}-p1-nel{nel}-"
    rows = (tmp_path / (prefix + "steps.csv")).read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].split(",")[:3] == ["1", "0.001", "1"]

    ops, state0 = build_case(catalog(case), nel, 1, 1e-3)
    _s, _t, [log] = solve(ops, IterationConfig(max_iters=1), state0)
    expected = io.StringIO()
    log.write_csv(expected)
    conv = (tmp_path / (prefix + "convergence.csv")).read_text()
    assert conv == expected.getvalue()


def test_solve_bad_nel_is_a_usage_error(tmp_path, capsys):
    # three counts for a 2D case: the mesh refuses it
    rc = main(["solve", "case=transport2d-smooth", "nel=4,4,4", "p=1",
               f"outdir={tmp_path}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "nel" in err
    assert "Traceback" not in err


def test_solve_mesh_beyond_physical_memory_is_a_usage_error(
        tmp_path, monkeypatch, capsys):
    # a tiny mesh on a machine said to have 100 bytes: refused by the
    # mesh's own guard before any index array is allocated
    import ehdg.mesh as mesh_mod

    monkeypatch.setattr(mesh_mod, "physical_memory", lambda: 100)
    rc = main(["solve", "case=transport2d-smooth", "nel=2", "p=1",
               f"outdir={tmp_path}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "bytes of index arrays, more than the 100 bytes" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_solve_inverses_beyond_physical_memory_is_a_usage_error(
        tmp_path, monkeypatch, capsys):
    # the mesh fits, but its 8 per-element 8 x 8 inverses (4096 bytes) do
    # not: refused before any is built
    import ehdg.mesh as mesh_mod

    monkeypatch.setattr(mesh_mod, "physical_memory", lambda: 4095)
    rc = main(["solve", "case=transport3d-steady", "nel=2", "p=1",
               f"outdir={tmp_path}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "need 4096 bytes of inverses (a_inv), more than the 4095" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["solve", "nel=1", "p=1", "dt=1e308", "steps=1"],
    ["verify", "nel=1", "p=1", "dt=1e308"],
    ["study", "nels=1", "ps=1", "dt=1e308", "steps=1"],
], ids=["solve", "verify", "study"])
def test_singular_local_operator_is_a_usage_error(argv, tmp_path, capsys):
    # at dt=1e308 the mass term all but vanishes and the p=1 shallow-water
    # local operator is singular: the assembly refuses it
    if argv[0] != "verify":
        argv = argv + [f"outdir={tmp_path}"]
    rc = main(argv[:1] + ["case=shallow-standing-wave"] + argv[1:])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "usage error: singular local operator: Singular matrix\n"


def test_verify_refuses_oversized_oracle_before_iterating(monkeypatch,
                                                         capsys):
    import ehdg.oracle as oracle_mod
    from ehdg.operators import LocalOperators

    def no_solve(*_args, **_kwargs):
        raise AssertionError("verify iterated before the oracle size check")

    def no_operators(*_args, **_kwargs):
        raise AssertionError("verify assembled before the oracle size check")

    monkeypatch.setattr(oracle_mod, "solve", no_solve)
    monkeypatch.setattr(LocalOperators, "__init__", no_operators)
    rc = main(["verify", "case=transport3d-steady", "nel=16", "p=1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "exceed the dense-solve guard" in err


@pytest.mark.parametrize("argv", [
    ["solve", "case=transport2d-smooth", "nel=2", "p=1"],
    ["study", "case=transport2d-smooth", "nels=2,4", "ps=1"],
    ["tables", "table=1", "nels=2", "ps=1"],
])
def test_outdir_naming_a_file_is_refused_before_any_work(argv, tmp_path,
                                                         monkeypatch, capsys):
    import ehdg.cli as cli_mod
    import ehdg.problems as problems_mod

    def no_case(*_args, **_kwargs):
        raise AssertionError("a case was built before the outdir check")

    for mod in (cli_mod, problems_mod):
        for name in ("build_case", "run_cell"):
            monkeypatch.setattr(mod, name, no_case)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([*argv, f"outdir={taken}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "outdir" in err
    assert "Traceback" not in err


def test_solve_error_difference_without_exact_exit_1(tmp_path, capsys):
    # the discontinuous case has no exact solution to stop against
    rc = main(["solve", "case=transport2d-discontinuous", "nel=4", "p=1",
               f"outdir={tmp_path}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "no exact solution" in err
    assert "successive-difference" in err and "trace-residual" in err
    assert not list(tmp_path.iterdir())


def test_solve_config_file_flag(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("case=transport2d-smooth\nnel=4\np=2\n")
    rc = main(["solve", "p=1", f"outdir={tmp_path}", "-c", str(path)])
    assert rc == 0
    # override p=1 beat the file's p=2
    assert (tmp_path / "transport2d-smooth-p1-nel4-convergence.csv").is_file()


# -- study ----------------------------------------------------------------------


def test_study_writes_rate_table(tmp_path):
    rc = main([
        "study", "case=transport2d-smooth", "nels=4,8", "ps=1",
        f"outdir={tmp_path}",
    ])
    assert rc == 0
    lines = (tmp_path / "transport2d-smooth-study.csv").read_text().splitlines()
    assert lines[0] == "case,p,nel,h,error,order,iterations"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 2
    assert rows[0][5] == ""           # no order on the coarsest mesh
    order = float(rows[1][5])
    assert 1.5 < order < 2.5          # p=1 pair refines at second order
    assert float(rows[1][4]) < float(rows[0][4])


def test_study_repeated_mesh_is_usage_error(tmp_path, capsys):
    rc = main(["study", "case=transport2d-smooth", "nels=2,2", "ps=1",
               f"outdir={tmp_path}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: nel 2 appears more than once")
    assert not list(tmp_path.iterdir())


def test_study_without_exact_solution_is_usage_error(tmp_path, capsys):
    # a study measures errors against the exact solution, and
    # transport2d-discontinuous has none
    rc = main(["study", "case=transport2d-discontinuous", "nels=2,4",
               "ps=1", f"outdir={tmp_path}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "no exact solution" in err
    assert not list(tmp_path.iterdir())


# the keys of one small cell, as solve and study spell them
_CELL_KEYS = {"solve": ["nel=4", "p=1"], "study": ["nels=4", "ps=1"]}


def test_study_transient_without_steps_is_usage_error(tmp_path, capsys):
    # transport2d-smooth has no default step count, so a dt alone cannot
    # say how far to march; solve and study refuse it the same way
    for command, cell in _CELL_KEYS.items():
        rc = main([command, "case=transport2d-smooth", *cell, "dt=0.01",
                   f"outdir={tmp_path}"])
        assert rc == 1
        assert ("usage error: transient transport needs steps="
                in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_steps_without_a_time_step_is_usage_error(tmp_path, capsys):
    # a steady case would ignore steps= and write no -steps.csv
    for command, cell in _CELL_KEYS.items():
        rc = main([command, "case=transport2d-smooth", *cell, "steps=3",
                   f"outdir={tmp_path}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage error:" in err and "steps=" in err
    assert not list(tmp_path.iterdir())


# -- tables ---------------------------------------------------------------------


def test_tables_smoke_table1(tmp_path):
    # at nel=2 the cold-start sweep needs more than 10 * n_el passes
    rc = main(["tables", "table=1", "nels=2,4", "ps=1", f"outdir={tmp_path}"])
    assert rc == 0
    lines = (tmp_path / "table1-iterations.csv").read_text().splitlines()
    assert lines[0] == "case,nel,p,iterations"
    assert len(lines) == 7            # three steady cases, two cells each
    rows = [ln.split(",") for ln in lines[1:]]
    cells = {(row[0], row[1]) for row in rows}
    assert ("transport2d-discontinuous", "4") in cells
    assert ("transport2d-smooth", "16") in cells
    assert ("transport3d-steady", "64") in cells
    assert all(int(row[3]) > 0 for row in rows)


def test_tables_smoke_table2(tmp_path):
    rc = main([
        "tables", "table=2", "nels=2", "ps=1", "steps=2",
        f"outdir={tmp_path}",
    ])
    assert rc == 0
    lines = (tmp_path / "table2-iterations.csv").read_text().splitlines()
    assert lines[0] == "case,nel,p,dt,steps,iterations_per_step"
    assert len(lines) == 5            # two cases x two step sizes
    for ln in lines[1:]:
        row = ln.split(",")
        assert row[4] == "2"
        assert int(row[5]) >= 1


@pytest.mark.parametrize("table", ["1", "2"])
def test_tables_cap_exits_2(tmp_path, capsys, monkeypatch, table):
    from ehdg.driver import IterationConfig

    monkeypatch.setattr(IterationConfig, "iteration_cap", lambda self, m: 1)
    steps = ["steps=2"] if table == "2" else []
    rc = main(["tables", f"table={table}", "nels=2", "ps=1", *steps,
               f"outdir={tmp_path}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("non-convergence:")
    assert "level 1 hit the iteration cap" in err


# -- verify ---------------------------------------------------------------------


def test_verify_transport_passes(capsys):
    rc = main(["verify", "case=transport2d-smooth", "nel=4", "p=1"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("iterate-vs-direct", "flux-jump-iterate",
                 "flux-jump-direct", "iteration-converged"):
        assert f"PASS  {name}" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("dt", ["1e200", "1e10"])
def test_verify_passes_a_solution_far_below_its_data(capsys, dt):
    # a huge step leaves the Gaussian a solution of round-off size (zero at
    # dt=1e200), far below its initial state: the iterate's gap, at the
    # iteration's tolerance, is measured against the data's scale there
    rc = main(["verify", "case=transport3d-gaussian", "nel=1", "p=1",
               f"dt={dt}"])
    out = capsys.readouterr().out
    assert "PASS  iterate-vs-direct" in out
    assert rc == 0 and "FAIL" not in out


def test_verify_shallow_passes(capsys):
    rc = main([
        "verify", "case=shallow-standing-wave", "nel=4", "p=1", "dt=1e-3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS  mass-conservation" in out
    assert "FAIL" not in out


def test_verify_shallow_zero_mean_state_passes(capsys):
    # the standing wave's total mass is round-off sized, so a drift divided
    # by it would read O(1) on a conserving step
    rc = main([
        "verify", "case=shallow-standing-wave", "nel=8", "p=4", "dt=1e-4",
    ])
    out = capsys.readouterr().out
    assert "PASS  mass-conservation" in out
    assert rc == 0 and "FAIL" not in out


def test_verify_shallow_detects_mass_drift(monkeypatch, capsys):
    from ehdg.shallow import ShallowOperators

    exact_mass = ShallowOperators.total_mass
    calls = []

    def drifting(self, state):
        calls.append(state)
        return exact_mass(self, state) + 1e-6 * (len(calls) - 1)

    monkeypatch.setattr(ShallowOperators, "total_mass", drifting)
    rc = main([
        "verify", "case=shallow-standing-wave", "nel=4", "p=1", "dt=1e-3",
    ])
    assert rc == 3
    assert "FAIL  mass-conservation" in capsys.readouterr().out


def test_verify_detects_flux_defect(monkeypatch, capsys):
    import ehdg.oracle as oracle_mod

    monkeypatch.setattr(
        oracle_mod, "flux_jump_residual", lambda *a, **k: 1.0
    )
    rc = main(["verify", "case=transport2d-smooth", "nel=4", "p=1"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "FAIL  flux-jump-iterate" in out


# -- argument surface -----------------------------------------------------------


def test_unknown_command_rejected(capsys):
    assert main(["frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["solve", "nels=9"], "nels"),
    (["study", "nel=64"], "nel"),
    (["tables", "dt=0.5"], "dt"),
    (["verify", "steps=9"], "steps"),
    (["verify", "max_iters=1"], "max_iters"),
    (["tables", "table=1", "steps=3"], "steps"),
])
def test_command_refuses_a_key_it_does_not_read(argv, key, tmp_path,
                                                monkeypatch, capsys):
    # an ignored key would exit 0 without the effect it asks for
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert f"{argv[0]} does not read {key}=" in err
    assert not list(tmp_path.iterdir())


def test_unread_key_in_config_file_is_refused(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("case=transport2d-smooth\nnel=4\np=1\ntable=1\n")
    assert main(["verify", "-c", str(path)]) == 1
    assert "verify does not read table=" in capsys.readouterr().err
