import ast
import os
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import garchmc

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(garchmc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(garchmc.__all__) == public


def test_cli_import_loads_only_scipys_compiled_recurrence():
    # A fresh interpreter, so modules the tests import do not count.  Then
    # scipy.signal is imported after the package, as a caller of both may
    # do, and the kernel must still match public lfilter bit for bit.
    child = textwrap.dedent(
        """
        import sys
        import garchmc.cli
        heavy = ("scipy.signal", "scipy.stats", "scipy.fft", "scipy.special")
        loaded = [m for m in heavy if m in sys.modules]
        assert not loaded, loaded
        import numpy as np
        from scipy.signal import lfilter
        from garchmc.model import _drive_rows, _variance_tail
        y = np.random.default_rng(4).standard_normal(2700)
        rows = _drive_rows(y, y * y)
        drive = np.array((0.06219, 0.07872, -0.12403)).dot(rows)
        want = lfilter([1.0], [1.0, -0.8939], drive, zi=[0.8939 * 1.3])[0]
        got = _variance_tail(rows, 2699, 0.06219, 0.07872, 0.8939, -0.12403, 1.3)
        assert np.array_equal(got, want)
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_sigtools_loader_names_a_directory_without_it(tmp_path, monkeypatch):
    import garchmc.model as model

    # A stand-in scipy package whose signal directory holds no compiled module.
    (tmp_path / "signal").mkdir()
    (tmp_path / "signal" / "_sigtools.txt").write_text("")
    monkeypatch.setattr(model, "scipy", types.SimpleNamespace(__file__=str(tmp_path / "__init__.py")))
    with pytest.raises(ImportError, match=re.escape(f"missing from {tmp_path / 'signal'}")):
        model._load_sigtools()


def test_reference_imports_only_numpy_and_the_standard_library():
    # The test references must not share code with the package they check.
    names = set()
    for node in ast.walk(ast.parse((Path(__file__).parent / "reference.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    top = {name.split(".")[0] for name in names}
    assert "garchmc" not in top
    assert top - {"numpy"} <= sys.stdlib_module_names, top
