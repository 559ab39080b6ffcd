"""The line-trace tool's snapshot of the package source, on a stand-in
package with a stand-in trace: no tracer is installed and no pytest run
is started."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("line_trace", ROOT / "tools" / "line_trace.py")
line_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_trace)

MODULE = "def f(x):\n    if x:\n        return 1\n    return 2\n"


def stand_in(tmp_path, monkeypatch):
    """A one-module package under tmp_path, made the tool's package."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "m.py").write_text(MODULE)
    monkeypatch.setattr(line_trace, "ROOT", tmp_path)
    monkeypatch.setattr(line_trace, "PACKAGE", package)
    return package


def test_a_module_changed_during_the_run_is_named_and_refused(tmp_path, monkeypatch, capsys):
    package = stand_in(tmp_path, monkeypatch)

    def edits(args):
        (package / "m.py").write_text(MODULE + "\n\ndef g():\n    return 3\n")
        (package / "new.py").write_text("")
        return 0, set()

    monkeypatch.setattr(line_trace, "trace", edits)
    assert line_trace.main([]) == 1
    out = capsys.readouterr().out
    assert out == "line trace: changed during the run, so not reported: src/pkg/m.py, src/pkg/new.py\n"


def test_the_report_reads_the_snapshot(tmp_path, monkeypatch, capsys):
    package = stand_in(tmp_path, monkeypatch)
    sources = line_trace.snapshot()
    assert line_trace.changed(sources) == []
    (package / "m.py").unlink()
    assert line_trace.changed(sources) == ["src/pkg/m.py"]
    # lines 2-4 are the body; the `return 1` of line 3 never ran
    real = str((package / "m.py").resolve())
    assert line_trace.report({(real, 2), (real, 4)}, sources) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "src/pkg/m.py:3: unrun: return 1",
        "line trace: 3 function-body lines, 1 unrun, 1 not allowed",
    ]
