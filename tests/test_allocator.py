import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One cycle allocates and frees 24 MiB in 1 MiB arrays, like a clip's temporaries.
CYCLES = """
import resource
import numpy as np
import wavelearn

def cycle():
    arrays = [np.ones(1 << 17) for _ in range(24)]
    del arrays

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _run(code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set through glibc")
def test_freed_arrays_stay_mapped_after_import():
    # without the policy every cycle page-faults its 24 MiB back in (about 6,000 faults)
    assert int(_run(CYCLES)) < 64


def test_import_sets_no_policy_without_mallopt():
    code = ("import sys; sys.platform = 'darwin'\n"
            "import wavelearn\n"
            "assert wavelearn._libc is None\n")
    _run(code)
