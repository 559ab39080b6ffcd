"""Line trace of the test suite over the package source.

Runs pytest in this process under a `sys.settrace` tracer that records the
lines executed in `src/gradedrel`, then lists every line inside a function
body that never ran.  A function body is every line the compiler gives an
instruction in a function, lambda or comprehension, less a `def`'s own
first line, which only starts the call.

An unrun line is allowed when it belongs to a statement whose first line
holds `pragma: no cover` (the whole statement, so a marked `if` allows the
raise it guards), or when its stripped source text is listed in ALLOWED
for its module.  An ALLOWED text that no unrun line holds is reported too,
so the list cannot outlive the code it names.

Exit status: pytest's own when the tests fail, else 1 when a line is
unrun and not allowed or an ALLOWED text is stale, else 0.

    python tools/line_trace.py [pytest arguments]

Run it from the repository root: with no path given, pytest takes its
test paths from pyproject.toml.  Hypothesis runs without
deadlines, because the tracer slows every traced call.  The tests of
`tests/test_cli.py::TestCollectorPause` are always deselected: they
require a garbage collection after a command to find nothing, and a
tracer keeps frames alive in reference cycles, so they fail under any
tracer.  They run untraced with the rest of the suite.
"""

from __future__ import annotations

import ast
import inspect
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradedrel"

# unrun lines allowed by their stripped source text, per module
ALLOWED = {
    # only a big-endian host swaps the native count items
    "hulls.py": {"counts.byteswap()"},
    # gen_self_map's fallback after 64 restarts that each reach a dead end
    "harness.py": {"return identity_map(n)"},
}

UNTRACEABLE = "tests/test_cli.py::TestCollectorPause"


def body_lines(code) -> set[int]:
    """The function-body lines of every function nested in a code object."""
    out = set()
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_NEWLOCALS:
                lines = {line for _, _, line in const.co_lines() if line is not None}
                if not const.co_name.startswith("<"):
                    lines.discard(const.co_firstlineno)
                out |= lines
            out |= body_lines(const)
    return out


def pragma_lines(tree: ast.AST, source: list[str]) -> set[int]:
    """The lines of every statement whose first line holds the pragma."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and "pragma: no cover" in source[node.lineno - 1]:
            out.update(range(node.lineno, node.end_lineno + 1))
    return out


class _NoDeadlines:
    """Loads a hypothesis profile without deadlines before any test module
    is imported, so every test's settings inherit it."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("line-trace", deadline=None)
        settings.load_profile("line-trace")


def trace(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest with the tracer on; its exit status and the lines run."""
    import pytest

    executed: set[tuple[str, int]] = set()
    record = executed.add
    inside: dict[str, bool] = {}
    package = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            record((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        known = inside.get(name)
        if known is None:
            known = inside[name] = os.path.realpath(name).startswith(package)
        return local if known else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main([*args, "--deselect", UNTRACEABLE], plugins=[_NoDeadlines()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), {(os.path.realpath(name), line) for name, line in executed}


def report(executed: set[tuple[str, int]]) -> int:
    """Print the unrun lines; 1 if any is not allowed or ALLOWED is stale."""
    total = unrun_total = bad = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        lines = body_lines(compile(text, str(path), "exec"))
        marked = pragma_lines(ast.parse(text), source)
        allowed = ALLOWED.get(path.name, set())
        real = os.path.realpath(path)
        unrun = sorted(line for line in lines if (real, line) not in executed)
        total += len(lines)
        unrun_total += len(unrun)
        held = set()
        rel = path.relative_to(ROOT)
        for line in unrun:
            stripped = source[line - 1].strip()
            if line in marked or stripped in allowed:
                held.add(stripped)
                print(f"{rel}:{line}: allowed: {stripped}")
            else:
                bad += 1
                print(f"{rel}:{line}: unrun: {stripped}")
        for stale in sorted(allowed - held):
            bad += 1
            print(f"{rel}: ALLOWED text no unrun line holds: {stale}")
    print(
        f"line trace: {total} function-body lines, {unrun_total} unrun,"
        f" {bad} not allowed"
    )
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    status, executed = trace(argv)
    loaded = sys.modules.get("gradedrel")
    if loaded is None or Path(loaded.__file__).resolve().parent != PACKAGE:
        print(f"line trace: the tests did not import the package from {PACKAGE}")
        return 1
    if status:
        print(f"line trace: pytest exited {status}")
        return status
    return report(executed)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
