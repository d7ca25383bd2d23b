"""Every exported name resolves, and so does every boundary that the
benchmark's span table wraps, so deleting a name the traced run needs
fails here rather than in ``bench/run.py --trace``.  The package root
itself loads no submodule."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cesarolab

MODULES = sorted(m.name for m in pkgutil.iter_modules(cesarolab.__path__))
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_package_root_imports_no_submodule():
    # the package root re-exports nothing: each name is imported from its
    # module, so ``import cesarolab`` alone runs no layer's import-time work
    src = str(Path(cesarolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cesarolab; print(sorted("
         "m for m in sys.modules if m.startswith('cesarolab.')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"cesarolab.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def test_bench_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, attr, _ in spans.BOUNDARIES:
        mod = importlib.import_module(f"{spans.PACKAGE}.{layer}")
        owner, _, meth = attr.rpartition(".")
        # a method is patched on its class, so it must be defined there
        ok = (meth in vars(getattr(mod, owner, object)) if owner
              else callable(getattr(mod, attr, None)))
        if not ok:
            missing.append(f"{layer}.{attr}")
    assert not missing
