"""Correctness verification: invariants, differential replay, goldens.

Four pillars, all opt-in (``REPRO_VERIFY=1`` or ``--verify``):

* :mod:`repro.verify.invariants` — the runtime invariant catalog
  paranoia mode asserts at kernel boundaries and event-queue operations.
* :mod:`repro.verify.runtime` / :mod:`repro.verify.hooks` — the one
  switch the guarded check sites read, and the on/off API over it.
* :mod:`repro.verify.replay` — differential replay: one workload, two
  execution paths, first-divergence reporting at kernel-boundary
  granularity.
* :mod:`repro.verify.golden` — content-addressed golden-result ledger
  for the Tier-1 workloads (``results/golden/``).
* :mod:`repro.verify.fuzz` — seeded workload fuzzer with shrinking,
  driving the invariant checker and differential replay.

Only the import-light leaves (:mod:`repro.verify.digest`,
:mod:`repro.verify.runtime`, :mod:`repro.verify.hooks`) load at package
scope; the engine, :mod:`repro.gpu.gpu` and the predictor import this
package, so anything that reaches back into the model or analysis layers
must stay behind deferred imports.
"""

from repro.verify.digest import (
    VOLATILE_RESULT_FIELDS,
    canonical_json,
    content_digest,
    payload_digest,
    state_digest,
    state_field_digests,
)
from repro.verify.hooks import install, uninstall
from repro.verify.runtime import VERIFY_ENV, ensure_paranoia, verify_enabled

__all__ = [
    "VERIFY_ENV",
    "VOLATILE_RESULT_FIELDS",
    "canonical_json",
    "content_digest",
    "ensure_paranoia",
    "install",
    "payload_digest",
    "state_digest",
    "state_field_digests",
    "uninstall",
    "verify_enabled",
]

