"""Recovery points for long-duration DOPs.

"Recovery points act as 'fire-walls' inside a DOP that limit the scope
of work lost in case of a failure and provide a starting point after
recovery [HR87].  These recovery points are chosen automatically by the
system after appropriate events or time intervals and are transparent to
design tool and designer.  In particular, after each checkout operation
a recovery point is set" (Sect.5.2).

:class:`RecoveryPointPolicy` decides *when* to take one (event-driven:
after checkout; time-driven: every ``interval`` simulated minutes of
tool work).  :class:`RecoveryManager` persists them to the
workstation's stable storage and serves the most recent one at restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.network import StableStorage
from repro.te.context import DopContext, SavepointStack
from repro.util.errors import RecoveryError


@dataclass
class RecoveryPointPolicy:
    """When the client-TM takes automatic recovery points.

    ``after_checkout`` implements the paper's mandatory post-checkout
    point ("in order to avoid duplicate requests of a DOV from the
    server in the case of a failure"); ``interval`` adds periodic points
    during long tool executions (0 disables them).  Experiment T2 sweeps
    ``interval`` to show lost work is bounded by it.
    """

    after_checkout: bool = True
    interval: float = 30.0

    def due(self, work_since_last: float) -> bool:
        """True when a periodic point is due after *work_since_last*."""
        return self.interval > 0 and work_since_last >= self.interval


@dataclass(frozen=True)
class RecoveryPoint:
    """One persisted restart point of a DOP."""

    dop_id: str
    taken_at: float      # simulated time
    reason: str          # 'checkout' | 'interval' | 'savepoint' | ...
    context: dict[str, Any]           # DopContext.snapshot()
    savepoints: list[tuple[str, dict[str, Any]]]  # SavepointStack.snapshot()


class RecoveryManager:
    """Client-TM-side persistence of recovery points and savepoints.

    A point is two durable records per DOP.  The *header*
    (``recovery-point:<dop>``) holds everything but the checkout list:
    ``data``, ``tool_state``, ``work_done``, the savepoint images, the
    checkout-log length, ``taken_at`` and ``reason`` — written by one
    :meth:`StableStorage.put`, whose deep copy is the point's only
    private copy (frozen payload values share themselves).  The
    *checkout log* (``recovery-log:<dop>``) is append-only: a point
    appends just the ``checked_out`` entries added since the previous
    one, so its cost does not grow with the length of the session.
    """

    def __init__(self, stable: StableStorage,
                 policy: RecoveryPointPolicy | None = None) -> None:
        self.stable = stable
        self.policy = policy or RecoveryPointPolicy()
        #: recovery points taken (for the T2 accounting)
        self.points_taken = 0
        #: volatile: dop_id -> (the context's ``checked_out`` list, the
        #: number of its entries already in the durable log)
        self._journaled: dict[str, tuple[list[str], int]] = {}

    def _key(self, dop_id: str) -> str:
        return f"recovery-point:{dop_id}"

    def _log_key(self, dop_id: str) -> str:
        return f"recovery-log:{dop_id}"

    # -- taking points ------------------------------------------------------

    def take(self, dop_id: str, context: DopContext,
             savepoints: SavepointStack, taken_at: float,
             reason: str) -> None:
        """Persist a new recovery point (replaces the previous one).

        Only the most recent point is retained: "the TM has to rely on
        the most recent recovery point" (Sect.5.2).  The checkout log
        is rewritten whole only when the context's list is not the one
        journaled last time or became shorter (Restore, Resume,
        :meth:`~repro.te.transaction_manager.ClientTM.recover_dop`, a
        first point); otherwise only its new suffix is appended.
        """
        checked_out = context.checked_out
        log_key = self._log_key(dop_id)
        journaled = self._journaled.get(dop_id)
        if journaled is not None and journaled[0] is checked_out \
                and journaled[1] <= len(checked_out):
            for entry in checked_out[journaled[1]:]:
                self.stable.append(log_key, entry)
        else:
            self.stable.put(log_key, checked_out)
        self._journaled[dop_id] = (checked_out, len(checked_out))
        self.stable.put(self._key(dop_id), {
            "dop_id": dop_id,
            "taken_at": taken_at,
            "reason": reason,
            "data": context.data,
            "tool_state": context.tool_state,
            "work_done": context.work_done,
            "log_length": len(checked_out),
            "savepoints": savepoints.images(),
        })
        self.points_taken += 1

    def forget_volatile(self) -> None:
        """Drop the journaled-length table (the workstation crashed);
        the next point of every DOP rewrites its log whole."""
        self._journaled.clear()

    # -- restart ---------------------------------------------------------------

    def latest(self, dop_id: str) -> RecoveryPoint | None:
        """The most recent persisted point for *dop_id*, if any."""
        raw = self.stable.get(self._key(dop_id))
        if raw is None:
            return None
        log = self.stable.get(self._log_key(dop_id), [])
        return RecoveryPoint(
            dop_id=raw["dop_id"],
            taken_at=raw["taken_at"],
            reason=raw["reason"],
            context={
                "data": raw["data"],
                "tool_state": raw["tool_state"],
                "checked_out": log[:raw["log_length"]],
                "work_done": raw["work_done"],
            },
            savepoints=[(n, s) for n, s in raw["savepoints"]],
        )

    def restore(self, dop_id: str) -> tuple[DopContext, SavepointStack,
                                            RecoveryPoint]:
        """Rebuild context + savepoints from the most recent point.

        Raises :class:`RecoveryError` when no point exists (then the
        DOP must be rolled back to its very beginning).
        """
        point = self.latest(dop_id)
        if point is None:
            raise RecoveryError(f"no recovery point for DOP {dop_id!r}")
        context = DopContext.from_snapshot(point.context)
        savepoints = SavepointStack.from_snapshot(point.savepoints)
        return context, savepoints, point

    def remove(self, dop_id: str) -> bool:
        """Drop the recovery point (commit/abort path: "the client-TM
        removes all its savepoints and its recovery point", Sect.5.2)."""
        self._journaled.pop(dop_id, None)
        self.stable.delete(self._log_key(dop_id))
        return self.stable.delete(self._key(dop_id))

    def has_point(self, dop_id: str) -> bool:
        """True when a recovery point is persisted for *dop_id*."""
        return self._key(dop_id) in self.stable
