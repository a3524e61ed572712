"""The columnar vectorized datapath engine (what ``ovs`` runs on NumPy).

The paper's attack inflates the megaflow mask count so every cache miss
degenerates into a long linear subtable scan; everything this repo
measures is bounded by how fast that scan executes.  The packed-key
fast path made one lookup a single ``packed & mask`` on Python ints —
this package lifts the *whole batch* into NumPy: flow keys become rows
of a ``uint64`` lane array (one pack per batch, reusing the
:class:`~repro.flow.fields.FieldSpace` bit offsets), every megaflow
entry becomes one column of a dense lane-major mirror in scan order,
and a burst lookup screens whole (key, column) blocks with a single
mixed ``uint64`` fingerprint compare per cell, confirming each claimed
match exactly before it counts.

NumPy is a declared dependency, but the package degrades gracefully
without it: importing :mod:`repro.vec` always succeeds, and
``HAVE_NUMPY`` says whether the engine is usable — the ``ovs`` backend
reads it at build time and runs the scalar
:class:`~repro.ovs.switch.OvsSwitch` when it is false (bit-identical
results, slower wall clock).  The NumPy-only modules import through
:func:`require_numpy`, which raises a :class:`NumpyUnavailableError`
with install guidance instead of a bare ``ImportError``.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised via the HAVE_NUMPY flag
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the container ships numpy
    _np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

#: the paths a ``VecTupleSpaceSearch`` lookup can be answered by —
#: ``memo`` (a pre-scan's remembered answer, which an earlier burst's
#: pre-scan may have found: the memo carries over while the tuple space
#: is unchanged) and the scalar reference scan, split by why the memo
#: did not answer.  A key answered by the scalar probe with no live memo
#: is ``memo_invalidated`` when the tuple space's generation has moved
#: since this tuple space last answered a lookup and no live memo
#: absorbed the write — a removal or a re-sort retired it, or the write
#: was an install into a tuple space no pre-scan had paid for
#: (``mask-churn``'s first burst, 255 of its 2,048 lookups) — and
#: ``small_burst`` when it has not (the burst was too small or too
#: sparse to pre-scan, or a live memo did not hold the key: ``VecSwitch``
#: pre-scans every key from a burst's first EMC miss on, so an EMC
#: resident evicted mid-burst is a ``memo`` answer).  Defined here, NumPy-free,
#: because the ``repro.obs`` encoder names them for every engine
VEC_TSS_FALLBACK_REASONS = ("staged", "small_burst", "memo_invalidated")
VEC_TSS_PATHS = ("memo",) + VEC_TSS_FALLBACK_REASONS

__all__ = [
    "HAVE_NUMPY",
    "VEC_TSS_FALLBACK_REASONS",
    "VEC_TSS_PATHS",
    "NumpyUnavailableError",
    "require_numpy",
    "LaneCodec",
    "VecSwitch",
    "VecTupleSpaceSearch",
]


class NumpyUnavailableError(RuntimeError):
    """A NumPy-only module (the columnar engine, its key codec) was
    imported without NumPy installed."""


def require_numpy(what: str = "the vec columnar engine"):
    """Return the ``numpy`` module, or raise a clear, actionable error.

    Every NumPy-only module imports NumPy through here, so a missing
    NumPy yields one well-worded failure instead of a bare
    ImportError.
    """
    if not HAVE_NUMPY:
        raise NumpyUnavailableError(
            f"{what} requires NumPy, which is not installed; "
            "install it (pip install numpy)"
        )
    return _np


def __getattr__(name: str):
    # lazy re-exports: importing repro.vec must stay numpy-free so
    # `repro scenario --list` works (and degrades gracefully) without it
    if name in ("LaneCodec", "VecSwitch", "VecTupleSpaceSearch"):
        from repro.vec import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
