"""DOP processing contexts, savepoints, suspend/resume.

"The context of a DOP consists of the current state of the design data
and on information about the state of the application program
implementing the DOP" (Sect.5.2, footnote).  :class:`DopContext` models
exactly that pair: the working copy of the design data plus an opaque
tool-state dict.  On top of it sit the designer-facing structuring
facilities of Sect.4.3:

* **Save / Restore** — designer-marked savepoints ("intermediate
  states, to which a designer might wish to return later, are
  explicitly marked by the designer");
* **Suspend / Resume** — a DOP may pause for days; the state seen
  after Resume "must be equal to that seen when issuing the Suspend
  command".

Savepoints and suspended contexts live on the workstation's *stable*
storage (they are implemented with the recovery-point mechanism,
Sect.5.2), so they also survive workstation crashes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

from repro.repository.versions import is_frozen_payload
from repro.util.errors import RecoveryError


def _cow_copy(mapping: dict[str, Any]) -> dict[str, Any]:
    """Copy-on-write image of a working dict over frozen payloads.

    Values installed by checkout are frozen (immutable through any
    reference) and are shared into the image as-is; everything the
    tool produced itself is deep-copied as before.  Savepoints and
    restores thus cost O(top-level keys), not O(payload bytes).
    """
    return {key: value if is_frozen_payload(value)
            else copy.deepcopy(value)
            for key, value in mapping.items()}


@dataclass
class DopContext:
    """Volatile working state of one design operation.

    ``data`` is the tool's working copy of the design object (seeded by
    checkout, mutated by tool steps, checked in at the end); ``tool_state``
    is whatever the tool needs to continue (iteration counters,
    intermediate structures); ``work_done`` accumulates the simulated
    effort invested, which the lost-work experiment (T2) compares before
    and after crashes.  ``checked_out`` only ever grows by an in-place
    append (checkout); every other change replaces the whole context,
    which is what lets recovery points journal it as an append-only log.
    """

    data: dict[str, Any] = field(default_factory=dict)
    tool_state: dict[str, Any] = field(default_factory=dict)
    checked_out: list[str] = field(default_factory=list)
    work_done: float = 0.0

    def snapshot(self) -> dict[str, Any]:
        """Storage-ready image of the context (copy-on-write).

        Frozen payload values are shared, mutable tool output is
        deep-copied — the image is private either way.
        """
        return {
            "data": _cow_copy(self.data),
            "tool_state": copy.deepcopy(self.tool_state),
            "checked_out": list(self.checked_out),
            "work_done": self.work_done,
        }

    @classmethod
    def from_snapshot(cls, snap: dict[str, Any]) -> "DopContext":
        """Rebuild a context from a :meth:`snapshot` image."""
        return cls(
            data=_cow_copy(snap["data"]),
            tool_state=copy.deepcopy(snap["tool_state"]),
            checked_out=list(snap["checked_out"]),
            work_done=snap["work_done"],
        )


class SavepointStack:
    """Named, ordered savepoints over a :class:`DopContext`.

    Restore semantics follow the paper: restoring a savepoint "wipes
    out" everything done after it, including later savepoints.
    """

    def __init__(self) -> None:
        self._stack: list[tuple[str, dict[str, Any]]] = []

    def save(self, name: str, context: DopContext) -> None:
        """Record the current context under *name*."""
        if any(existing == name for existing, _ in self._stack):
            raise RecoveryError(f"savepoint {name!r} already exists")
        self._stack.append((name, context.snapshot()))

    def restore(self, name: str | None = None) -> DopContext:
        """Return the context saved under *name* (default: most recent).

        Later savepoints are discarded; the restored savepoint itself is
        kept, so it can be restored again.
        """
        if not self._stack:
            raise RecoveryError("no savepoints to restore")
        if name is None:
            index = len(self._stack) - 1
        else:
            try:
                index = next(i for i, (n, _) in enumerate(self._stack)
                             if n == name)
            except StopIteration:
                raise RecoveryError(f"no savepoint named {name!r}") from None
        name_kept, snap = self._stack[index]
        del self._stack[index + 1:]
        return DopContext.from_snapshot(snap)

    def names(self) -> list[str]:
        """Savepoint names, oldest first."""
        return [n for n, _ in self._stack]

    def clear(self) -> None:
        """Remove all savepoints (commit/abort path, Sect.5.2)."""
        self._stack.clear()

    def __len__(self) -> int:
        return len(self._stack)

    def images(self) -> list[tuple[str, dict[str, Any]]]:
        """The stored ``(name, image)`` pairs themselves, uncopied.

        For a writer that copies them once anyway (a recovery point's
        ``StableStorage.put``); everyone else wants :meth:`snapshot`.
        """
        return self._stack

    def snapshot(self) -> list[tuple[str, dict[str, Any]]]:
        """Storage-ready image of the whole stack."""
        return [(n, copy.deepcopy(s)) for n, s in self._stack]

    @classmethod
    def from_snapshot(cls, snap: list[tuple[str, dict[str, Any]]]
                      ) -> "SavepointStack":
        """Rebuild a stack from a :meth:`snapshot` image."""
        stack = cls()
        stack._stack = [(n, copy.deepcopy(s)) for n, s in snap]
        return stack
