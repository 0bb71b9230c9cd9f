"""The golden digests and the edge-beam rows on other x86-64 CPUs.

Child processes run them under the kernels that a CPU without AVX-512 gets
(OpenBLAS's Prescott and Haswell kernels, numpy without its AVX-512 loops),
each setting in the child's environment only, and must reproduce the values
of this process bit for bit. A setting this CPU cannot run is skipped.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
# numpy's run-time CPU feature table; it has no public equivalent
from numpy._core._multiarray_umath import __cpu_features__ as CPU

import coopaug
import test_pipeline
import test_rangeview
import test_sim

X86 = platform.machine().lower() in ("x86_64", "amd64")
# name: (environment, whether this CPU can run it)
VARIANTS = {
    "prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, X86),
    "haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, X86 and CPU["AVX2"] and CPU["FMA3"]),
    "no-avx512": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                  X86 and CPU.get("AVX512F", False)),
}


def values():
    return {"cloud": test_sim.golden_cloud_digests(),
            "rangeview": test_sim.golden_rangeview_digests(),
            "cmag": test_pipeline.golden_cmag_digests(),
            "edge rows": test_rangeview.edge_beam_rows()}


@pytest.fixture(scope="module")
def children():
    """The runnable variants' child processes, started together."""
    path = [str(Path(coopaug.__file__).parents[1]), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH", "")]
    procs = {name: subprocess.Popen(
        [sys.executable, "-c", "import json, test_cross_cpu as t; print(json.dumps(t.values()))"],
        env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(path)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, (env, runs) in VARIANTS.items() if runs}
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.communicate()


@pytest.fixture(scope="module")
def in_process(children):
    return values()


@pytest.mark.parametrize("variant", VARIANTS)
def test_child_reproduces_in_process_values(variant, children, in_process):
    if variant not in children:
        pytest.skip(f"this CPU cannot run the {variant} kernels")
    out, err = children[variant].communicate(timeout=300)
    assert children[variant].returncode == 0, err
    assert json.loads(out) == in_process
