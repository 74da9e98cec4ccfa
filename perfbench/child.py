"""One benchmark process: `ehdg solve` through `ehdg.cli.main`.

    python3 perfbench/child.py MODE RECORD solve key=value ...

MODE is one of
  plain   take only the two boundary timestamps setup_s and solve_s need:
          when the first operator constructor returns and when the first
          output writer starts;
  setup   the same path, but the process exits as soon as the operator
          constructor returns (a set-up sample without the solve);
  traced  wrap every layer entry point (see tracer.py) and keep the spans.

The process start time is taken by the launcher; all times here are
CLOCK_MONOTONIC so the two compare. The record is written to RECORD as
JSON. The child keeps the caller's environment: no thread settings, and
nothing imports numpy before ehdg does.
"""

import json
import os
import sys
import time

CLOCK = time.monotonic


def _write(path, record):
    with open(path, "w") as fh:
        json.dump(record, fh)


def _plain_hooks(cli, driver, marks, exit_after_setup, record_path):
    def after_init(cls):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if "setup_end" not in marks:
                marks["setup_end"] = CLOCK()
                if exit_after_setup:
                    _write(record_path, {"status": 0, "marks": marks})
                    os._exit(0)

        cls.__init__ = __init__

    def write_started(fn):
        def first(*args, **kwargs):
            marks.setdefault("write_start", CLOCK())
            return fn(*args, **kwargs)
        return first

    after_init(cli.TransportOperators)
    after_init(cli.ShallowOperators)
    cli.write_field_dump = write_started(cli.write_field_dump)
    cli._write_steps_csv = write_started(cli._write_steps_csv)
    driver.ConvergenceLog.write_csv = write_started(
        driver.ConvergenceLog.write_csv)


def _rate(outdir):
    """Exponential rate fitted to the successive_diff column of the written
    convergence CSV (the last solve or step); None when undefined."""
    from ehdg.driver import fit_exponential_rate

    names = [n for n in os.listdir(outdir) if n.endswith("-convergence.csv")]
    if len(names) != 1:
        return None
    with open(os.path.join(outdir, names[0])) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    fit = fit_exponential_rate([float(r[2]) for r in rows if r[2]])
    return fit.rate if fit.defined else None


def main():
    mode, record_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import ehdg.cli as cli  # the first import of numpy happens here
    import ehdg.driver as driver

    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli)
        marks = tracer.marks
    else:
        marks = {}
        _plain_hooks(cli, driver, marks, mode == "setup", record_path)

    status = cli.main(argv)
    marks["end"] = CLOCK()
    record = {"status": status, "marks": marks}
    if mode == "traced":
        record.update(tracer.record())
        outdir = next(a for a in argv if a.startswith("outdir="))[7:]
        record["rate"] = _rate(outdir)
    _write(record_path, record)
    return status


if __name__ == "__main__":
    sys.exit(main())
