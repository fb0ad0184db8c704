"""What importing the package loads, checked in a fresh interpreter.

perfbench/gen.py imports vidconceal.synth in every set-up process, so each
module the import pulls in is paid for in the benchmark's setup_s.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def loaded_by(module: str) -> set[str]:
    """The vidconceal modules a fresh interpreter holds after importing
    ``module``."""
    code = (f"import json, sys, {module}; "
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'vidconceal']))")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("module,want", [
    ("vidconceal", {"vidconceal"}),
    ("vidconceal.synth", {"vidconceal", "vidconceal.synth", "vidconceal.yuv_io", "vidconceal.core"}),
])
def test_import_loads_only_what_it_needs(module, want):
    assert loaded_by(module) == want
