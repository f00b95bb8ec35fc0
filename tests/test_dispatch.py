"""Which byte pins hold only where numpy dispatches its AVX-512 (X86_V4) loops.

The sha256 pins are recorded on a CPU where numpy runs its X86_V4 loops, and
numpy's float64 exp, tan, log and angle give other last bits below that
level. The pin tests are rerun in a subprocess with those loops disabled, as
numpy runs on an AVX2-only x86 CPU, and the pins that then fail must be
exactly DISPATCH_DEPENDENT: a change that makes one more pin depend on the
dispatch fails here, and one that frees a pin shrinks the list.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: The features numpy leaves undispatched on an AVX2-only x86 CPU.
DISABLED = "X86_V4 AVX512_ICL AVX512_SPR"
#: The test classes that hold the sha256 pins of sampled streams, files and analytic outputs.
PIN_TESTS = [
    "tests/test_grid_sampler.py::TestUnitEfficiencyPins",
    "tests/test_grid_sampler.py::TestGuideTable",
    "tests/test_homodyne.py::TestPinnedBytes",
    "tests/test_homodyne.py::TestJsonPins",
    "tests/test_homodyne.py::TestRealAmplitudePins",
    "tests/test_homodyne.py::TestLossyCoherentStreams",
    "tests/test_noise.py::TestAnalyticPins",
    "tests/test_noise.py::TestStreamingComparison",
]
#: The pins that fail with those features disabled.
DISPATCH_DEPENDENT = {
    "tests/test_grid_sampler.py::TestUnitEfficiencyPins::test_sample_homodyne[mixed6]",
    "tests/test_grid_sampler.py::TestUnitEfficiencyPins::test_sample_fixed_phase",
    "tests/test_grid_sampler.py::TestGuideTable::test_sample_homodyne_bytes",
    "tests/test_grid_sampler.py::TestGuideTable::test_sample_fixed_phase_bytes",
    "tests/test_homodyne.py::TestPinnedBytes::test_sample_homodyne[fock3]",
    "tests/test_homodyne.py::TestPinnedBytes::test_sample_homodyne[coherent]",
    "tests/test_homodyne.py::TestPinnedBytes::test_sample_fixed_phase[fock3]",
    "tests/test_homodyne.py::TestPinnedBytes::test_csv_files",
    "tests/test_homodyne.py::TestJsonPins::test_sampled[fock3]",
    "tests/test_homodyne.py::TestJsonPins::test_sampled[coherent]",
    "tests/test_homodyne.py::TestJsonPins::test_sampled[n4096]",
    "tests/test_homodyne.py::TestJsonPins::test_sampled[n4097]",
    "tests/test_homodyne.py::TestRealAmplitudePins::test_sample_homodyne[2.0]",
    "tests/test_homodyne.py::TestRealAmplitudePins::test_sample_homodyne[-1.3]",
    "tests/test_homodyne.py::TestLossyCoherentStreams::test_unit_efficiency_bytes[complex]",
    "tests/test_homodyne.py::TestLossyCoherentStreams::test_unit_efficiency_bytes[real]",
}


def _dispatches_x86_v4() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy before 2.0
        return False
    return "X86_V4" in __cpu_dispatch__ and bool(__cpu_features__.get("X86_V4"))


@pytest.mark.skipif(
    not _dispatches_x86_v4() or "NPY_DISABLE_CPU_FEATURES" in os.environ,
    reason="numpy does not dispatch its X86_V4 loops here, so the pins already run without them",
)
def test_pins_that_depend_on_the_simd_dispatch():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf", *PIN_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    lines = run.stdout.splitlines()
    failed = {line.split()[1] for line in lines if line.startswith("FAILED ")}
    assert run.returncode in (0, 1), run.stdout[-2000:] + run.stderr[-2000:]
    assert any(" passed" in line for line in lines), run.stdout[-2000:]
    assert failed == DISPATCH_DEPENDENT
