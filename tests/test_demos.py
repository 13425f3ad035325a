"""The demo scripts import only names that the package provides, and the
quick ones run end to end.

`highway_positioning.py` and `qos_prediction.py` run in a few seconds, so
they are run whole. `rail_multi_trp.py` (about 8 s) and `drop_scheduling.py`
(a couple of minutes) are only import-checked, to keep the suite short.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def _package_imports(path):
    """(module, name) for every name a script imports from nrtransport."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nrtransport":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "nrtransport")


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_exist(path):
    imports = list(_package_imports(path))
    assert imports, f"{path.name} imports nothing from nrtransport"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module} has no {name}"


@pytest.mark.parametrize("name", ["highway_positioning", "qos_prediction"])
def test_quick_demo_runs_end_to_end(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
