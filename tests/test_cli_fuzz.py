"""A property test over the command line: whatever the tokens, `ehdg.cli.main`
returns an exit code (0, 1 or 2, and 3 for a failed verify check) without
raising, and every refusal is a usage error.

Each example draws one command and, for some of the keys that command reads
(_COMMANDS), a valid value on a tiny case; in half the examples one or two
of them take an edge value instead. The case and the keys that set the size
of the work (the mesh, the orders and the pass cap) are always given, so
that every example stays small. outdir= names an existing directory, a new
one, an existing file or nothing.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ehdg.cli import _COMMANDS, main
from ehdg.driver import STOPPING_MODES
from ehdg.problems import case_identifiers

EDGE = ("0", "-1", "nan", "inf", "1e308", "1e-300", "")


def _int_lists(max_size, unique=False):
    # per-axis lists of any length, so some have the wrong length
    return st.lists(st.integers(1, 2), min_size=1, max_size=max_size,
                    unique=unique).map(lambda v: ",".join(map(str, v)))


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


VALID = {
    "case": st.sampled_from(case_identifiers()),
    "nel": _int_lists(4),
    "p": _ints(1, 2),
    "dt": st.sampled_from(["1e-3", "0.1", "1e200"]),
    "steps": _ints(1, 3),
    "stopping": st.sampled_from(STOPPING_MODES),
    "tol": st.sampled_from(["1e-10", "1e-6"]),
    "max_iters": st.sampled_from(["1", "2", "4", "60"]),
    "nels": _int_lists(2, unique=True),
    "ps": _int_lists(2, unique=True),
    "table": st.sampled_from(["1", "2", "both"]),
    # resolved in the example's own directory (outdir_value)
    "outdir": st.sampled_from(["dir", "new", "file", ""]),
}
# given in every example that reads them: the case, and the keys that
# bound the work
ALWAYS = {"case", "nel", "nels", "ps", "max_iters"}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    keys = [key for key in _COMMANDS[command][1].split()
            if key in ALWAYS or draw(st.booleans())]
    # half the examples take no edge value, so that they run a solve;
    # outdir's edge values are among its own (outdir_value)
    edged = draw(st.one_of(st.just(set()), st.sets(st.sampled_from(keys),
                                                   min_size=1, max_size=2)))
    return command, [
        (key, draw(st.sampled_from(EDGE) if key in edged - {"outdir"}
                   else VALID[key]))
        for key in keys]


def outdir_value(choice, root):
    """An existing directory, a new one, an existing file, or empty."""
    if choice == "file":
        path = os.path.join(root, "taken")
        with open(path, "w") as fh:
            fh.write("not a directory\n")
        return path
    return {"dir": root, "new": os.path.join(root, "a", "b"), "": ""}[choice]


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
# found by this test: a singular local operator raised AssemblyError out of
# main, and the Gaussian's exact solution and the standing wave's warned of
# an overflow and of an invalid cosine at times past 1e200
@example(("solve", [("case", "shallow-standing-wave"), ("nel", "1"),
                    ("p", "1"), ("dt", "1e308"), ("steps", "1")]))
@example(("solve", [("case", "transport3d-gaussian"), ("nel", "1"),
                    ("p", "1"), ("dt", "1e200"), ("steps", "1")]))
@example(("solve", [("case", "shallow-standing-wave"), ("nel", "1"),
                    ("p", "2"), ("dt", "1e308"), ("steps", "1")]))
def test_every_command_line_ends_in_an_exit_code(line):
    command, pairs = line
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        argv = [command] + [
            f"{key}={outdir_value(raw, root) if key == 'outdir' else raw}"
            for key, raw in pairs]
        # without outdir= a command writes into the working directory
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main(argv)
        finally:
            os.chdir(cwd)
    # verify's exit 3 is a check that fails, as one does at tol=1e-300
    assert rc in ((0, 1, 2, 3) if command == "verify" else (0, 1, 2)), (
        argv, rc, err.getvalue())
    if rc == 1:
        assert err.getvalue().startswith("usage error:"), (argv,
                                                           err.getvalue())
