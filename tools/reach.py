"""Which functions of ``src/repro`` does anything reach?

Runs the program's entry points under ``sys.setprofile`` and lists the
functions of ``src/repro`` that none of them calls, with their line
counts.  With ``--tests`` it also runs the tier-1 suite and splits that
list in two: functions reached by nothing at all, and functions reached
only by tier-1 tests (candidates for deletion together with their
tests).

Run from the repository root::

    python tools/reach.py            # entry points only
    python tools/reach.py --tests    # plus the tier-1 suite (~4 min)

The entry points, each run once in one fresh child process:

* ``bench all --metrics --timeline --timings`` and ``bench fig1b --json``;
* ``bench topo -k 4 --scenario both --table --verify``;
* ``bench faults`` and ``bench replica``;
* ``bench fleet --spec examples/fleet_quickstart.json --out ... --timings
  --verify``;
* the four ``perfbench`` workloads at seed 1 (imported, not edited);
* every ``examples/*.py`` script (with each API its ``Run:`` line
  offers) and every ``benchmarks/`` target.

Functions are the ``def`` statements of ``src/repro`` (methods and
nested functions included), matched to the code objects the profiler
sees by file and first line.  A function counts as reached when it was
called (or, for a generator, resumed) at least once.  The program is
first imported under the profiler, inside the first entry point, so
functions that only module-level code calls (figure declarations such
as ``figures._plot``) count as reached.  The profiler sees this process
only, and every world-building job is seen: the world runner
(``repro.sim.worlds.run_worlds``) keeps them in the process while a
profiler is attached.  The probe is a report, not
a gate: it exits non-zero only when an entry point itself fails, since
the lists are then incomplete.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import glob
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")


# -- the function table ---------------------------------------------------------


def function_table() -> dict:
    """``(path, first line) -> (qualified name, lines)`` for every
    ``def`` under ``src/repro``; the first line is the first
    decorator's, as in ``co_firstlineno``."""
    table = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        rel = os.path.relpath(path, ROOT)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = f"{prefix}{child.name}"
                    table[(rel, first)] = (name, child.end_lineno - first + 1)
                    visit(child, f"{name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return table


# -- the child phases -------------------------------------------------------------


def _entry_points(tmp: str) -> list:
    """``(label, thunk)`` for every entry point, in run order.  The
    thunks import the program themselves, under the profiler."""

    def bench(argv):
        from repro.bench.runner import main

        return main(argv)

    def perfbench():
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        from workloads import WORKLOADS

        for work in WORKLOADS.values():
            state = work.build(work.inputs(1))
            work.check(work.run(state), state, 1)

    def run_path(path, *args):
        def run():
            argv = sys.argv
            sys.argv = [path, *args]  # as ``python examples/<script>.py``
            try:
                runpy.run_path(path, run_name="__main__")
            finally:
                sys.argv = argv

        return run

    def pytest_benchmarks():
        import pytest

        return pytest.main(["benchmarks", "-q", "--benchmark-disable",
                            "-p", "no:cacheprovider"])

    points = [
        ("bench all", lambda: bench([
            "all", "--metrics", os.path.join(tmp, "metrics.json"),
            "--timeline", os.path.join(tmp, "timeline.json"),
            "--timings"])),
        ("bench fig1b --json", lambda: bench(["fig1b", "--json"])),
        ("bench topo", lambda: bench(["topo", "-k", "4", "--scenario", "both",
                                      "--table", "--verify"])),
        ("bench faults", lambda: bench(["faults"])),
        ("bench replica", lambda: bench(["replica"])),
        ("bench fleet", lambda: bench([
            "fleet", "--spec", os.path.join(ROOT, "examples",
                                            "fleet_quickstart.json"),
            "--out", os.path.join(tmp, "fleet"), "--timings", "--verify"])),
        ("perfbench workloads", perfbench),
    ]
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        rel = os.path.relpath(path, ROOT)
        with open(path, encoding="utf-8") as fh:
            per_api = "[gm|mx]" in fh.read()  # the documented Run: line
        for args in ([("gm",), ("mx",)] if per_api else [()]):
            points.append((" ".join([rel, *args]), run_path(path, *args)))
    points.append(("benchmarks/", pytest_benchmarks))
    return points


def _tier1(tmp: str) -> list:
    def suite():
        import pytest

        return pytest.main(["tests", "-q", "-p", "no:cacheprovider"])

    return [("tier-1 tests", suite)]


PHASES = {"entry": _entry_points, "tests": _tier1}


def run_phase(phase: str, out: str) -> None:
    """Child side: run one phase under the profiler and write the
    ``[path, first line]`` of every ``src/repro`` code object called."""
    seen: dict = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, thunk in PHASES[phase](tmp):
            print(f"[reach] {label}", file=sys.stderr, flush=True)
            threading.setprofile(profile)
            sys.setprofile(profile)
            try:
                with open(os.devnull, "w") as null, \
                        contextlib.redirect_stdout(null), \
                        contextlib.redirect_stderr(null):
                    status = thunk()
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # noqa: BLE001 - report, go on
                traceback.print_exc()
                status = repr(exc)
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
            if status not in (None, 0):
                failures.append(f"{label}: {status}")
    prefix = PACKAGE + os.sep
    reached = sorted({(os.path.relpath(c.co_filename, ROOT), c.co_firstlineno)
                      for c in seen.values()
                      if c.co_filename.startswith(prefix)})
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"reached": reached, "failures": failures}, fh)


def reached_by(phase: str) -> tuple:
    """Parent side: run ``phase`` in a fresh child; returns the set of
    reached ``(path, first line)`` keys and the failed entry points."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "reached.json")
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--phase", phase, "--out", out],
                       cwd=ROOT, env=env, check=True)
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
    return {tuple(key) for key in data["reached"]}, data["failures"]


# -- the report --------------------------------------------------------------------


def report(title: str, keys: list, table: dict) -> None:
    lines = sum(table[k][1] for k in keys)
    print(f"\n== {title}: {len(keys)} functions, {lines} lines ==")
    for key in keys:
        name, n = table[key]
        print(f"{key[0]}:{key[1]}  {name}  ({n} lines)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="List the functions of src/repro that the entry points "
                    "(and, with --tests, the tier-1 suite) never call.")
    parser.add_argument("--tests", action="store_true",
                        help="also run the tier-1 suite and split the "
                             "unreached functions into 'reached by nothing' "
                             "and 'reached only by tier-1'")
    parser.add_argument("--phase", choices=sorted(PHASES),
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.phase:
        run_phase(args.phase, args.out)
        return 0
    table = function_table()
    entry, failures = reached_by("entry")
    unreached = sorted(k for k in table if k not in entry)
    print(f"{len(table)} functions in src/repro, "
          f"{sum(n for _name, n in table.values())} lines")
    if args.tests:
        tests, test_failures = reached_by("tests")
        failures += test_failures
        report("reached by nothing",
               [k for k in unreached if k not in tests], table)
        report("reached only by tier-1 tests",
               [k for k in unreached if k in tests], table)
    else:
        report("reached by no entry point", unreached, table)
    for failure in failures:
        print(f"[reach] failed: {failure}", file=sys.stderr)
    return 1 if failures else 0  # a failed entry point skews the report


if __name__ == "__main__":
    raise SystemExit(main())
