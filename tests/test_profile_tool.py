"""Smoke test for ``tools/profile_hotpath.py``: the serve profile and
the per-module roll-up run end to end on a small workload."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tool():
    path = ROOT / "tools" / "profile_hotpath.py"
    spec = importlib.util.spec_from_file_location("profile_hotpath", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()


def _rows(out):
    return {line.split()[0]: line for line in out.splitlines() if line.strip()}


def test_serve_by_module(capsys):
    assert TOOL.main(["--serve", "--by-module", "--accesses", "40", "--top", "60"]) == 0
    rows = _rows(capsys.readouterr().out)
    for module in ("repro.link.wire", "repro.compression.lbe", "repro.serve.session"):
        assert module in rows
    assert "(total)" in rows


def test_serve_function_listing(capsys):
    assert TOOL.main(["--serve", "--accesses", "20", "--top", "5"]) == 0
    assert "function calls" in capsys.readouterr().out


def test_memlink_by_module(capsys):
    assert TOOL.main(["--scale", "smoke", "--accesses", "300", "--by-module"]) == 0
    assert "repro.sim.memlink" in _rows(capsys.readouterr().out)


def test_module_of():
    assert TOOL.module_of("/x/src/repro/link/wire.py") == "repro.link.wire"
    assert TOOL.module_of("/x/src/repro/serve/__init__.py") == "repro.serve"
