"""tools/pairs.py: the claim rule on synthetic samples and the refusal of
trees that are not siblings. No benchmark process is started."""

import importlib.util
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
