"""Shared maintenance policies for incrementally patched indexes.

Structures patched in place by streaming mutations can accumulate
*stale* residue while doing so: the succinct symbol mirror keeps an
overlay of the sequences mutated since its last build
(:class:`repro.engine.succinct.SuccinctSymbolIndex`).  It degrades
gracefully — correctness never depends on compaction — but eventually
wants a full rebuild, with a simple trigger: don't bother below a fixed
floor of staleness, and above it rebuild once the stale fraction
dominates the structure.

Keeping the rule here gives third-party incremental indexes the
identical knob.
"""

from __future__ import annotations

__all__ = ["stale_rebuild_due"]


def stale_rebuild_due(stale: int, total: int, floor: int) -> bool:
    """Whether accumulated staleness justifies an O(total) rebuild.

    ``floor`` is the caller's staleness floor: below that many stale
    entries a rebuild is never worth its O(total) cost, whatever the
    ratio.  True when more than ``floor`` stale entries have
    accumulated *and* they outnumber half of ``total`` — i.e. the
    amortized cost of the rebuild is charged against at least as much
    dead weight as live structure.  With every mutation adding O(1)
    stale entries, rebuilds triggered by this rule cost O(1) amortized
    per mutation.
    """
    return stale > floor and 2 * stale > total
