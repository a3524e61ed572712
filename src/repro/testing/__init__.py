"""What the tests hold the fast paths to: the retired paths, kept as
oracles, and the one by-value comparator of datapath state.

Every fast path in this repo — packed, ranked, batched, vectorized,
sharded, memo-patched, floor-skipped, plan-compiled — claims to leave
exactly what the scalar per-key reference leaves.  When a fast path
retires the code it replaces, that code is not deleted: it moves to
:mod:`repro.testing.oracles`, one function per retired path, and the
differential machine in ``tests/`` swaps it into the reference
datapath.  :func:`fingerprint` is how the two are compared, and
:func:`result_digest` how a run is compared with the committed golden
record.  The simulator's closed-form EMC model has its ground truth
here too: the event-driven micro-simulation of
:mod:`repro.testing.eventsim`, on the heap scheduler of
:mod:`repro.testing.eventloop`.

Test-only: nothing else under ``src/repro/`` imports this package, and
importing it loads neither NumPy nor hypothesis (``repro.obs``, which
loads NumPy through ``repro.vec``, is imported inside
:func:`fingerprint`, on first use).
"""

from repro.testing import oracles
from repro.testing.fingerprint import fingerprint, result_digest, series_digest

__all__ = ["fingerprint", "oracles", "result_digest", "series_digest"]
