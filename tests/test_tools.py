"""tools/pairs.py: the claim rule on synthetic samples, the refusal of
trees that are not siblings and the --identity comparison on synthetic
output directories. No benchmark or solve process is started."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "pairs", os.path.join(ROOT, "tools", "pairs.py"))
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# ten parent runs: quartiles 1.9125 and 2.0875 (IQR 0.175), a quarter of
# the way from the third order statistic to the fourth and three quarters
# from the seventh to the eighth
PARENT = [1.8, 1.9, 1.9, 1.95, 2.0, 2.0, 2.05, 2.1, 2.1, 2.2]


def test_quartiles_interpolate_between_order_statistics():
    q1, q3 = pairs.quartiles(PARENT)
    assert q1 == pytest.approx(1.9125) and q3 == pytest.approx(2.0875)
    assert pairs.quartiles([3.0]) == (3.0, 3.0)


def test_a_clear_gain_is_claimed():
    change = [p - 0.5 for p in PARENT]
    v = pairs.verdict(PARENT, change, "lower")
    assert v["change_wins"] == 10 and v["change_losses"] == 0
    assert v["parent_median"] == 2.0 and v["change_median"] == 1.5
    assert v["claim"]


def test_eight_wins_of_ten_claim_nothing():
    change = [p - 0.5 for p in PARENT]
    change[3] = change[7] = 5.0
    v = pairs.verdict(PARENT, change, "lower")
    assert v["change_wins"] == 8 and v["wins_needed"] == 9
    assert not v["claim"]


def test_nine_wins_of_ten_are_enough():
    change = [p - 0.5 for p in PARENT]
    change[3] = 5.0
    assert pairs.verdict(PARENT, change, "lower")["claim"]


def test_a_gain_within_the_parent_iqr_claims_nothing():
    # better in every pair, but the medians differ by 0.1 < IQR 0.175
    change = [p - 0.1 for p in PARENT]
    v = pairs.verdict(PARENT, change, "lower")
    assert v["change_wins"] == 10
    assert not v["claim"]


def test_higher_is_better_reverses_the_sign():
    change = [p + 0.5 for p in PARENT]
    assert pairs.verdict(PARENT, change, "higher")["claim"]
    assert not pairs.verdict(PARENT, change, "lower")["claim"]


def test_equal_runs_neither_win_nor_lose():
    v = pairs.verdict(PARENT, list(PARENT), "lower")
    assert v["change_wins"] == v["change_losses"] == 0
    assert not v["claim"]


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        pairs.verdict(PARENT, PARENT[:-1], "lower")


def tree(path):
    os.makedirs(os.path.join(path, "perfbench"))
    open(os.path.join(path, "perfbench", "run.py"), "w").close()
    return str(path)


def test_siblings_are_accepted(tmp_path):
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    assert pairs.sibling_trees(a, b) == (os.path.realpath(a),
                                         os.path.realpath(b))


@pytest.mark.parametrize("layout", ["same", "nested", "cousins", "no-run"])
def test_trees_that_are_not_siblings_are_refused(tmp_path, layout):
    a = tree(tmp_path / "a")
    b = {"same": lambda: a,
         "nested": lambda: tree(tmp_path / "a" / "b"),
         "cousins": lambda: tree(tmp_path / "x" / "b"),
         "no-run": lambda: str(tmp_path / "c")}[layout]()
    with pytest.raises(ValueError):
        pairs.sibling_trees(a, b)


def test_main_refuses_before_any_work(tmp_path, monkeypatch):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(pairs, "compile_tree", no_work)
    monkeypatch.setattr(pairs, "run_once", no_work)
    a, b = tree(tmp_path / "a"), tree(tmp_path / "x" / "b")
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(["--parent", a, "--change", b, "--workload", "wave2d",
                    "--pairs", "10"])
    assert exit_info.value.code == 2


# -- --identity: the comparison of two runs' outputs ---------------------------


FIELD = ("# element nodal field dump\n# case=c\n"
         "0 1.0 -2.0 0.5\n1 4.0 0.25 -0.125\n")


def run_dir(path, files, code=0, stdout="c: 3 iterations\n"):
    """A synthetic run: an output directory holding files, with its exit
    code and stdout, as compare_runs takes it."""
    os.makedirs(path)
    for name, text in files.items():
        (path / name).write_text(text)
    return str(path), code, stdout


def test_identical_runs_are_identical(tmp_path):
    files = {"c-field.txt": FIELD, "c-convergence.csv": "iteration\n1\n"}
    r = pairs.compare_runs(run_dir(tmp_path / "a", files),
                           run_dir(tmp_path / "b", files))
    assert r["identical"] and r["differing_files"] == []
    assert r["field_difference"] is None
    assert sorted(r["files"]) == ["c-convergence.csv", "c-field.txt"]
    a, b = r["files"]["c-field.txt"]
    assert a == b and len(a) == 64


def test_a_field_difference_is_relative_to_the_parent(tmp_path):
    moved = FIELD.replace("0.25", "0.25000000000001")
    r = pairs.compare_runs(run_dir(tmp_path / "a", {"c-field.txt": FIELD}),
                           run_dir(tmp_path / "b", {"c-field.txt": moved}))
    assert not r["identical"] and r["differing_files"] == ["c-field.txt"]
    # 1e-14 against the parent's largest magnitude, 4
    assert r["field_difference"] == pytest.approx(1e-14 / 4, rel=1e-3)


@pytest.mark.parametrize("change", ["csv", "missing", "stdout", "exit",
                                    "shape"])
def test_any_other_difference_is_reported(tmp_path, change):
    files = {"c-field.txt": FIELD, "c-convergence.csv": "iteration\n1\n"}
    other = dict(files)
    code, stdout = 0, "c: 3 iterations\n"
    if change == "csv":
        other["c-convergence.csv"] = "iteration\n2\n"
    elif change == "missing":
        del other["c-convergence.csv"]
    elif change == "stdout":
        stdout = "c: 4 iterations\n"
    elif change == "exit":
        code = 2
    else:
        other["c-field.txt"] = FIELD + "2 1.0 1.0 1.0\n"
    r = pairs.compare_runs(run_dir(tmp_path / "a", files),
                           run_dir(tmp_path / "b", other, code, stdout))
    assert not r["identical"]
    if change == "missing":
        assert r["files"]["c-convergence.csv"][1] is None
    if change == "shape":
        assert r["field_difference"] == float("inf")
    else:
        assert r["field_difference"] is None


def fake_solve(field):
    """A stand-in for solve_outputs that writes field as the dump into the
    outdir of its arguments, so that no solve runs."""
    def solve_outputs(tree, args):
        outdir = next(a for a in args if a.startswith("outdir="))[7:]
        with open(os.path.join(outdir, "c-field.txt"), "w") as fh:
            fh.write(field(tree))
        return 0, "c: done\n"
    return solve_outputs


@pytest.mark.parametrize("same", [True, False])
def test_identity_compares_every_workload(tmp_path, monkeypatch, capsys,
                                          same):
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    names = ["w1", "w2"]

    class Workload:
        def solve_args(self, outdir):
            return ["solve", f"outdir={outdir}"]

    monkeypatch.setattr(pairs, "load_workloads",
                        lambda tree: {name: Workload() for name in names})
    moved = FIELD.replace("4.0", "4.5")
    monkeypatch.setattr(pairs, "solve_outputs", fake_solve(
        lambda tree: FIELD if same or tree == os.path.realpath(a) else moved))
    rc = pairs.main(["--parent", a, "--change", b, "--identity"])
    out = capsys.readouterr().out.splitlines()
    assert rc == (0 if same else 1)
    if same:
        assert out[:2] == ["w1: identical", "w2: identical"]
    else:
        assert out[0] == ("w1: differs: c-field.txt; largest relative field "
                          "difference 0.125")
    summary = json.loads(out[-1])["identity"]
    assert sorted(summary) == names
    assert all(r["identical"] == same for r in summary.values())


def test_identity_reads_the_parents_workloads():
    workloads = pairs.load_workloads(ROOT)
    assert {"steady3d", "gaussian3d", "wave2d", "disc2d"} <= set(workloads)
    args = workloads["wave2d"].solve_args("out")
    assert args[:2] == ["solve", "case=shallow-standing-wave"]
    assert args[-1] == "outdir=out"


@pytest.mark.parametrize("argv", [["--identity", "--pairs", "2"],
                                  ["--workload", "wave2d"],
                                  ["--identity", "--workload", "nope"]])
def test_main_refuses_a_mode_it_cannot_run(tmp_path, monkeypatch, argv):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the refusal")

    for name in ("compile_tree", "run_once", "solve_outputs"):
        monkeypatch.setattr(pairs, name, no_work)
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    # the synthetic trees hold no workloads file: read this one's
    monkeypatch.setattr(pairs, "load_workloads",
                        lambda _tree: {"wave2d": None})
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(["--parent", a, "--change", b, *argv])
    assert exit_info.value.code == 2
