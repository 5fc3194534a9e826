"""How fast the host runs at a given moment, from a fixed probe loop.

The benchmark's shared host changes speed by up to a factor of two, in
phases from seconds to minutes, through contention the process cannot
see (CPU steal reads near zero).  An untraced run therefore times a
probe just before every timed operation, outside its timed region: a
fixed pure-Python loop shaped like the program's hot path (a filtered
scan of a dict of rating-like records), small enough to stay in the
CPU's own caches.  The probe's time over
:data:`REFERENCE_PROBE_MS` is the host factor at that moment.  An
operation's factor is the mean of the factors probed near it
(``perfbench.bench.FACTOR_WINDOW_S``), and its time divided by that
reads as it would on a host that runs the probe in
:data:`REFERENCE_PROBE_MS`.  The probe is benchmark code, so a change to
the program moves scaled times by the same share as raw ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import Stopwatch

__all__ = ["REFERENCE_PROBE_MS", "HostProbe"]

#: Probe time the timings are scaled to: the probe's typical time on
#: the 2-vCPU host the benchmark was tuned on.
REFERENCE_PROBE_MS = 0.04

#: Records the probe scans, and agents they belong to.
PROBE_RECORDS = 1024
PROBE_AGENTS = 64

#: Scans per probe; the fastest counts, so that refilling the CPU caches
#: after an operation, or an interrupt, does not.
PROBE_PASSES = 5


@dataclass(frozen=True, slots=True)
class _Record:
    value: float


class HostProbe:
    """Times the probe loop on demand."""

    def __init__(self) -> None:
        self._records = {
            (f"agent{index % PROBE_AGENTS}", f"product{index}"): _Record(float(index % 5))
            for index in range(PROBE_RECORDS)
        }

    def factor(self) -> float:
        """Run the probe once: its time over the reference time."""
        best = float("inf")
        for _ in range(PROBE_PASSES):
            watch = Stopwatch()
            with watch:
                _ = {
                    product: record.value
                    for (agent, product), record in self._records.items()
                    if agent == "agent0"
                }
            best = min(best, watch.elapsed)
        return best * 1000.0 / REFERENCE_PROBE_MS
