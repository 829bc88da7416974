"""End-to-end data integrity: checksums, seeded damage, detection.

The paper's fault model is *timing*: late, lost and reordered messages
cost iterations, never correctness.  Real grid hardware also delivers
*value* faults — bit flips in flight, poisoned resident memory, torn
writes on disk — and an asynchronous iteration is exactly the kind of
algorithm that can silently absorb one into a wrong converged answer.
``repro.integrity`` holds the shared primitives of both halves of that
story:

* **fingerprints** — :func:`payload_checksum` (order-independent CRC
  over arbitrary message payloads, numpy arrays included) stamped onto
  :class:`~repro.runtime.message.Message` and verified on receive, and
  :func:`checkpoint_crc` stamped onto solver checkpoints and verified
  before any restore;
* **seeded damage** — :func:`corrupt_payload` /
  :func:`corrupt_array_inplace` (the value-level faults
  :class:`~repro.faults.models.PayloadCorruption` and
  :class:`~repro.faults.models.StateCorruption` compile to), driven by
  named RNG streams so corrupted runs stay byte-reproducible.

Detection and recovery semantics live with their layers: the transport
in :mod:`repro.runtime.node`, checkpoints in
:mod:`repro.core.solver` (with the synchronous models' halo resend and
pull), the numerical-plausibility guard in :mod:`repro.guard.plausibility`, and
the WAL/audit/cache quarantine paths in :mod:`repro.serve` and
:mod:`repro.exec.cache`.  See ``docs/robustness.md`` ("Data
integrity").
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "payload_checksum": "checksum",
        "checkpoint_crc": "checksum",
        "corrupt_payload": "damage",
        "corrupt_array_inplace": "damage",
    },
)
