"""Every distreg module imports when it is the first one imported.

An import cycle between the layers (such as ``weights`` importing
``experiments``, which imports ``regressor``, which imports ``weights``)
fails only in some import orders.  One fresh interpreter imports each
module first in turn, with every ``distreg`` module dropped from
``sys.modules`` in between, so such a cycle fails here rather than at a
user's first import.  Modules are not reloaded inside the test process,
where reloading would give its classes new identities.
"""

import os
import pkgutil
import subprocess
import sys

import distreg

EACH_FIRST = """
import importlib
import sys

failed = []
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.partition(".")[0] == "distreg"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed.append(f"{name}: {type(exc).__name__}: {exc}")
print("\\n".join(failed))
"""


def fresh_interpreter(code: str, *args: str) -> str:
    """What ``code`` prints in a new interpreter that imports this distreg."""
    src = os.path.dirname(os.path.dirname(distreg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_every_module_imports_first_in_a_fresh_interpreter():
    names = ["distreg"] + [
        f"distreg.{info.name}" for info in pkgutil.iter_modules(distreg.__path__)
    ]
    assert "distreg.weights" in names and "distreg._rng" in names
    assert fresh_interpreter(EACH_FIRST, *names) == ""


def test_the_command_line_leaves_the_process_pool_unloaded():
    # the study loop imports its pool only when a study asks for workers
    code = "import sys, distreg.cli; print(sorted(m for m in sys.modules if 'concurrent' in m))"
    assert fresh_interpreter(code) == "[]"


def test_the_schedules_leave_the_study_harness_unloaded():
    # the schedules live with the schemes they produce, below the studies
    code = (
        "import sys, importlib; importlib.import_module(sys.argv[1]); "
        "print('distreg.experiments' in sys.modules)"
    )
    for name in ("distreg.weights", "distreg.bounds"):
        assert fresh_interpreter(code, name) == "False", name
