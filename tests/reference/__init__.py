"""Per-flow reference twins of the product's array code, for parity gates.

``src/repro`` has one implementation per layer: array math over a compiled
link x flow incidence structure.  This package keeps the original per-flow
(scalar / dict) formulation of each of those layers, so the parity suites
and ``benchmarks/perf/run_bench.py`` can hold the product to them:

* :mod:`reference.schemes` -- the scalar ``step`` of the xWI, DGD, RCP*
  and DCTCP fluid simulators (1e-9 on rates and per-link state), and the
  one-link xWI price update;
* :mod:`reference.maxmin` -- the dict weighted max-min and the
  one-bottleneck-per-round water-fill (1e-9);
* :mod:`reference.oracle` -- the per-flow dual NUM solve and price scale
  (1e-9 in the tests, 1e-6 in the perf harness);
* :mod:`reference.flow_level` -- the dict flow-level loop (bit-identical
  completion records).

The root ``conftest.py`` and the perf harness put ``tests/`` on
``sys.path``, so ``import reference`` works from every test directory.
The dependency runs one way only: nothing under ``src/repro`` may import
this package (``tests/test_layering.py``).
"""

from reference.flow_level import DictFlowLevelSimulation
from reference.maxmin import max_min, waterfill_one_bottleneck, weighted_max_min
from reference.oracle import estimate_price_scale, solve_num
from reference.schemes import (
    ScalarDctcpFluidSimulator,
    ScalarDgdFluidSimulator,
    ScalarRcpStarFluidSimulator,
    ScalarXwiFluidSimulator,
    fluid_price_update,
)

__all__ = [
    "DictFlowLevelSimulation",
    "ScalarDctcpFluidSimulator",
    "ScalarDgdFluidSimulator",
    "ScalarRcpStarFluidSimulator",
    "ScalarXwiFluidSimulator",
    "estimate_price_scale",
    "fluid_price_update",
    "max_min",
    "solve_num",
    "waterfill_one_bottleneck",
    "weighted_max_min",
]
