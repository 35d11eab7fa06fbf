"""Shared address-region conventions between workloads and simulators.

Line numbers at or above :data:`BYPASS_BASE` carry a *no-allocate* (LLC
streaming) hint: the LLC neither caches nor keeps them, they go straight
to memory.  GPU L2 caches expose exactly this policy for streaming data
(e.g. CUDA's ``evict_first``/no-allocate access properties); workload
generators place one-shot streaming traffic there so it contributes
bandwidth pressure and a miss-rate floor without polluting the shared
cache.  Both the timing model (:mod:`repro.gpu.memory`) and the
functional MRC collector (:mod:`repro.mrc.collector`) honour the hint, so
timing and miss-rate views stay consistent.
"""

from __future__ import annotations

#: First line number of the LLC-bypass (no-allocate) region.
BYPASS_BASE = 1 << 38

