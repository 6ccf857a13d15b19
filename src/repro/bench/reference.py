"""Frozen performance references: what the speed gates divide by.

Every speedup gate of :mod:`repro.bench.perf` compares the production
path against the regime it replaced.  Those regimes live here, as
small frozen references, instead of as switches inside production
modules — production has exactly one path, and a reference never
changes unless a gate's baseline deliberately moves with it.

* **deepcopy payloads** (:class:`DeepcopyPayloads`) — the pre-freeze
  data path, in which every hand-off of a design payload deep-copied
  it and every size query re-walked it.  The reference runs the
  production operation and then pays those copies and walks on a
  plain-dict payload of the same shape;
* **one timer per lease** (:class:`TimerLeaseTable` on
  ``Kernel(wheel=False)``) — the heap-only kernel with one re-armable
  :class:`~repro.sim.kernel.Timer` per TTL lease, where a release
  still dispatches a no-op check and a renewal costs a re-check;
* **member scan** (:func:`scan_staged_home`,
  :class:`MemberScanFederation`) — resolving a staged version's home
  by asking every member for its staged ids, which is also the member
  truth the placement index must agree with
  (:func:`staged_home_mismatches`).
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from typing import Any

from repro.repository.federation import FederatedRepository
from repro.repository.repository import DesignDataRepository
from repro.repository.versions import payload_sizeof
from repro.sim.kernel import Timer
from repro.txn.leases import _EPS, Lease, LeaseTable

#: the no-op scope every arm of the frozen regime entered; kept so the
#: reference's per-arm cost (what the timer-churn gate divides by) holds
_ARM_SCOPE = nullcontext()

# The per-operation counts below are what the pre-freeze data path
# paid on top of the frozen one, as whole deep copies and sizing walks
# of the benchmark payload.  They were calibrated against that build
# in alternating runs on one host and rounded down, so a reference is
# never slower than the build it stands for (a slower baseline would
# quietly loosen its gate).

#: buffer-hit checkout: the checkout install, the context's
#: copy-on-write image and the recovery point's durable record
HIT_COPIES = 3

#: write-through round: the three checkout copies and the WAL record;
#: sized for the upload, the server's staging and the shipment
ROUND_COPIES, ROUND_WALKS = 4, 3

#: deferred checkin shipped by a group flush: the WAL record and one
#: sizing walk (the frozen path's own freeze walk already costs about
#: as much as the second)
CHECKIN_COPIES, CHECKIN_WALKS = 1, 1


class DeepcopyPayloads:
    """The pre-freeze payload regime as a per-operation cost.

    *payload* is kept as a plain (mutable) dict, so every copy is a
    full recursive deepcopy and every size query a full walk — exactly
    what the data path paid before payloads were frozen once at
    version creation.
    """

    def __init__(self, payload: dict[str, Any], copies: int,
                 walks: int = 0) -> None:
        self.payload = payload
        self.copies = copies
        self.walks = walks

    def pay(self, times: int = 1) -> int:
        """Pay *times* operations' worth of copies and walks; returns
        the modelled bytes walked (kept so the work is observable)."""
        payload = self.payload
        total = 0
        for _ in range(times):
            for _ in range(self.copies):
                copy.deepcopy(payload)
            for _ in range(self.walks):
                total += payload_sizeof(payload)
        return total


class TimerLeaseTable(LeaseTable):
    """TTL leases with one re-armable Timer each (no expiry buckets).

    Every live lease is one kernel event; a release leaves its timer
    armed, so the timer still fires as a no-op check, and a renewal is
    noticed only when the timer fires and re-arms.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: one expiry timer per (workstation, dov_id)
        self._timers: dict[tuple[str, str], Timer] = {}

    def _file(self, lease: Lease) -> None:
        if lease.expires_at is None:
            return
        key = (lease.workstation, lease.dov_id)
        timer = self._timers.get(key)
        kernel = self._kernel()
        if timer is None:
            if kernel is None:
                return  # no kernel: expiry via expire_due() sweeps
            timer = Timer(kernel, lambda: self._on_timer(key),
                          label=f"lease-expiry:{lease.dov_id}"
                                f"@{lease.workstation}")
            self._timers[key] = timer
        with _ARM_SCOPE:
            timer.arm(lease.expires_at)

    def _on_timer(self, key: tuple[str, str]) -> None:
        workstation, dov_id = key
        lease = self.lease(workstation, dov_id)
        if lease is None or lease.expires_at is None:
            return  # recalled/released meanwhile, or TTL switched off
        if lease.expires_at > self.clock.now + _EPS:
            self._file(lease)  # renewed: check again at the new instant
            return
        self._expire(lease)

    def clear(self) -> None:
        super().clear()
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()


def scan_staged_home(members: dict[str, DesignDataRepository],
                     dov_id: str) -> str | None:
    """The member whose store holds *dov_id* staged, found by asking
    every one of *members* — O(members), the member truth."""
    for name, member in members.items():
        if dov_id in member.store.staged_ids():
            return name
    return None


def staged_home_mismatches(federation: FederatedRepository
                           ) -> list[str]:
    """Every way the placement index disagrees with member truth.

    Each staged id's indexed home must be the member that holds it,
    found by :func:`scan_staged_home`, and the index may hold no
    staged id that no member holds.  Returns one line per mismatch
    (empty = the index equals member truth).
    """
    index = federation.placement_index
    members = federation.members()
    problems = []
    held = 0
    for member in members.values():
        for dov_id in sorted(member.store.staged_ids()):
            held += 1
            indexed = index.staged_home(dov_id)
            truth = scan_staged_home(members, dov_id)
            if indexed != truth:
                problems.append(f"{dov_id}: index says {indexed!r}, "
                                f"member scan says {truth!r}")
    indexed_total = index.stats()["staged_index"]
    if indexed_total != held:
        problems.append(f"index holds {indexed_total} staged ids, "
                        f"members hold {held}")
    return problems


class MemberScanFederation(FederatedRepository):
    """A federation resolving staged homes by member scan (the
    reference of the ``federation_scaling`` benchmark)."""

    def _staged_home_of(self, dov_id: str) -> str | None:
        return scan_staged_home(self._members, dov_id)
