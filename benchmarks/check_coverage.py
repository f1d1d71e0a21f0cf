"""Which lines of ``src/repro`` a pytest run never executes.

A pytest plugin with a ``sys.settrace`` / ``threading.settrace`` line
collector; it needs nothing outside the standard library::

    PYTHONPATH=src python -m pytest -q -p benchmarks.check_coverage \\
        --max-unreached N

or, the same run, ``PYTHONPATH=src python benchmarks/check_coverage.py
--max-unreached N [pytest arguments]``.

The executable lines of a module are the lines ``co_lines()`` gives for
every function, lambda and comprehension body in it (module and class
bodies run at import and are left out).  A function's first line counts
as run when the function is entered.  It counts lines, not branches: a
line counts as run when any part of it runs, so each arm of a
conditional expression (``a if c else b``) or of a one-line ``if`` needs
a line of its own to be seen.  After the run the plugin prints
the unreached lines per file (``file:line  function  source``) and the
session fails when

* more than ``--max-unreached`` lines are unreached, or
* an unreached line is not in the allow-list, ``coverage_allow.txt``
  next to this file, where each kept line is named by its function and
  its text, with its reason.

The collector re-arms itself before every test, and names each test
after which it had to (a test that swaps the trace function out and
does not restore it).  Lines run only in a forked child or at
interpreter exit are never seen; they belong in the allow-list.  A
traced tier-1 run takes about six times as long as a plain one, so this
is a CI job of its own, not part of tier-1.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
ALLOW_LIST = Path(__file__).resolve().parent / "coverage_allow.txt"

_FUNCTION = 0x2  # CO_NEWLOCALS: a function body, not a module or class body


def _function_codes(code):
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            if const.co_flags & _FUNCTION:
                yield const
            yield from _function_codes(const)


def executable_lines(path: Path) -> dict[int, str]:
    """Line number -> qualified name of the function it belongs to."""
    code = compile(path.read_text(), str(path), "exec")
    lines: dict[int, str] = {}
    for fn in _function_codes(code):
        for _, _, line in fn.co_lines():
            if line is not None:
                lines.setdefault(line, fn.co_qualname)
    return lines


class Collector:
    """Lines run per file; a code object whose lines have all run is no
    longer traced, which keeps the cost of hot loops down."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.hits: dict[str, set[int]] = {}
        self._left: dict[object, set[int] | None] = {}
        self._files: dict[str, set[int]] = {}

    def _lines_left(self, code):
        left = self._left.get(code, False)
        if left is False:
            path = os.path.realpath(code.co_filename)
            if path.startswith(self.prefix):
                left = {l for _, _, l in code.co_lines() if l is not None}
                self._files[code.co_filename] = self.hits.setdefault(
                    path, set())
            else:
                left = None
            self._left[code] = left
        return left

    def global_trace(self, frame, event, arg):
        code = frame.f_code
        left = self._lines_left(code)
        if not left:
            return None
        hits = self._files[code.co_filename]
        hits.add(code.co_firstlineno)
        left.discard(code.co_firstlineno)

        def local_trace(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                hits.add(line)
                left.discard(line)
                if not left:
                    return None
            return local_trace

        return local_trace

    def arm(self):
        threading.settrace(self.global_trace)
        sys.settrace(self.global_trace)

    def armed(self) -> bool:
        return sys.gettrace() == self.global_trace


def load_allow_list(path: Path = ALLOW_LIST) -> set:
    """``(file, function, source)`` per ``file::function::source`` entry:
    the unreached lines of that function with that text.  ``#`` starts
    a comment; the reason is the comment block above.  An entry that
    names no line (a whole function) is an error."""
    entries = set()
    for raw in path.read_text().splitlines():
        entry = raw.strip()
        if not entry or entry.startswith("#"):
            continue
        parts = tuple(p.strip() for p in entry.split("::", 2))
        if len(parts) != 3:
            raise ValueError(f"{path.name}: {entry!r} names no line "
                             "(file::function::source)")
        entries.add(parts)
    return entries


def unreached(hits: dict[str, set[int]]):
    """``(relative file, line, function, source)`` for each unreached line."""
    rows = []
    for path in sorted(SOURCE.rglob("*.py")):
        run = hits.get(str(path), set())
        text = path.read_text().splitlines()
        rel = path.relative_to(SOURCE).as_posix()
        for line, qualname in sorted(executable_lines(path).items()):
            if line not in run:
                rows.append((rel, line, qualname, text[line - 1].strip()))
    return rows


def total_lines() -> int:
    return sum(len(executable_lines(p)) for p in SOURCE.rglob("*.py"))


def report(hits, max_unreached: int | None, write) -> bool:
    """Print the unreached lines; True when the run passes the gate."""
    rows = unreached(hits)
    allowed = load_allow_list()
    listed = [r for r in rows if (r[0], r[2], r[3]) in allowed]
    unlisted = [r for r in rows if r not in listed]
    total = total_lines()
    by_file: dict[str, int] = {}
    for rel, *_ in rows:
        by_file[rel] = by_file.get(rel, 0) + 1
    write("")
    write(f"coverage of src/repro: {len(rows)} of {total} executable lines "
          f"unreached ({100.0 * len(rows) / total:.2f} %), "
          f"{len(listed)} of them allow-listed")
    for rel, count in sorted(by_file.items(), key=lambda kv: -kv[1]):
        write(f"  {count:4d}  {rel}")
    for rel, line, qualname, source in unlisted:
        write(f"not allow-listed: {rel}:{line}  {qualname}  {source}")
    ok = not unlisted
    if max_unreached is not None and len(rows) > max_unreached:
        write(f"FAIL: {len(rows)} unreached lines, above --max-unreached "
              f"{max_unreached}")
        ok = False
    if unlisted:
        write(f"FAIL: {len(unlisted)} unreached lines are not in "
              f"{ALLOW_LIST.name}")
    return ok


# -- pytest plugin -----------------------------------------------------------

_collector = Collector(str(SOURCE) + os.sep)
_rearmed_after: list[str] = []
_last_test = ["(collection)"]


def pytest_addoption(parser):
    parser.addoption(
        "--max-unreached", type=int, default=None, metavar="N",
        help="fail when more than N lines of src/repro are unreached")


def pytest_configure(config):
    _collector.arm()


def pytest_runtest_setup(item):
    if not _collector.armed():
        _rearmed_after.append(_last_test[0])
        _collector.arm()


def pytest_runtest_teardown(item):
    _last_test[0] = item.nodeid


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    write = print
    for nodeid in _rearmed_after:
        write(f"\ncoverage: re-armed the collector after {nodeid}")
    if not report(_collector.hits,
                  session.config.getoption("--max-unreached"), write):
        if session.exitstatus == 0:
            session.exitstatus = 1


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", *sys.argv[1:]],
                         plugins=[sys.modules[__name__]]))
