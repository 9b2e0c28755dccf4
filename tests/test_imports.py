"""Every hillmap submodule imports when it is the first one imported, so an
import cycle fails here and not only in the order some caller happens to use.
"""
import pkgutil
import subprocess
import sys
from pathlib import Path

import hillmap

SCRIPT = """
import importlib, sys
sys.path.insert(0, {root!r})
for name in {names!r}:
    for key in [k for k in sys.modules if k.split(".")[0] == "hillmap"]:
        del sys.modules[key]
    importlib.import_module("hillmap." + name)
"""


def test_every_submodule_imports_first():
    names = sorted(m.name for m in pkgutil.iter_modules(hillmap.__path__))
    assert {"cli", "hill", "maps", "transfer"} <= set(names)
    root = str(Path(hillmap.__file__).resolve().parents[1])
    # one interpreter for all modules: only the hillmap entries are dropped
    # between imports, so numpy and scipy load once
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(root=root, names=names)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
