"""Byzantine fault models and the BFT-hardened ordering layer.

1Pipe's correctness argument (§2.1) assumes fail-stop components: a
switch either aggregates barriers honestly or crashes, a sender either
stamps monotone timestamps or dies.  This package drops that assumption:

- :mod:`repro.byz.keys` — the simulated MAC and key registry ``MODE_BFT``
  components authenticate with (no real cryptography; see
  docs/BYZANTINE.md for the threat model this is sound under).

The adversarial fault kinds themselves live in
:mod:`repro.chaos.schedule` (``byz_*``, drawn only with
``adversarial=True``); the §2.1 clause each one breaks
(``ADVERSARY_CLAUSES``) and the checks that pin it there — and, under
``MODE_BFT``, that the adversary was detected and evicted — are the
attack mode of :class:`repro.verify.oracle.ReferenceOracle`.  The
hardened protocol pieces live where their fail-stop counterparts do:
:class:`BftChipEngine` in :mod:`repro.onepipe.incarnations`, receiver
admission in :mod:`repro.onepipe.receiver`, the accusation/eviction
flow in :mod:`repro.onepipe.controller`.
"""

from repro.byz.keys import KeyRegistry, get_key_registry, mac, proc_key_id

__all__ = [
    "KeyRegistry",
    "get_key_registry",
    "mac",
    "proc_key_id",
]
