"""The latency-modeled backend link to the identity directory.

The :class:`~repro.sim.city.directory.IdentityDirectory` itself answers
instantly — it is a data structure. A *deployed* directory is a backend
service on the other side of a link: a pole (or the billing plane)
submitting a fingerprint resolution gets the answer ``k`` backend
rounds later. That latency is the whole trade the paper's handoff
machinery navigates — push plants identity *ahead* of the car (zero
lookup latency, zero air time), pull pays the round trip, blind
re-decode pays air time instead — and modeling it is what turns the
three policies into measured points on one curve.

The model is deliberately simple and deterministic: a FIFO of pending
resolutions, each ready ``latency_rounds`` backend rounds (of
:data:`BACKEND_ROUND_S`) after submission, resolved against the
directory *at delivery time* (the answer reflects directory state when
the backend got around to it, not when the question was asked —
exactly how a real queue behaves).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ...errors import ConfigurationError

__all__ = ["BackendAnswer", "DirectoryBackend"]

#: Length of one backend round.
BACKEND_ROUND_S = 1e-3


@dataclass(frozen=True)
class BackendAnswer:
    """One completed resolution, delivered ``ready_s - submitted_s`` late.

    ``token`` is the caller's correlation handle, returned verbatim —
    the billing plane passes the pending toll event's key through it.
    """

    account_id: int | None
    cfo_hz: float
    submitted_s: float
    ready_s: float
    token: object = None


class DirectoryBackend:
    """FIFO resolve queue in front of an identity directory.

    Attributes:
        directory: anything with ``resolve(cfo_hz, now_s) -> int | None``
            (an :class:`~repro.sim.city.directory.IdentityDirectory`).
        latency_rounds: backend rounds (of :data:`BACKEND_ROUND_S`)
            between submit and answer.
    """

    def __init__(self, directory, latency_rounds: int = 5):
        if latency_rounds < 0:
            raise ConfigurationError("backend latency cannot be negative")
        self.directory = directory
        self.latency_rounds = int(latency_rounds)
        self._pending: deque[tuple[float, float, float, object]] = deque()
        self.submitted = 0
        self.delivered = 0

    @property
    def latency_s(self) -> float:
        """The link's round trip: submit -> answer."""
        return self.latency_rounds * BACKEND_ROUND_S

    def submit(self, cfo_hz: float, t_s: float, token: object = None) -> float:
        """Queue one resolution; returns when its answer will be ready."""
        ready_s = float(t_s) + self.latency_s
        self._pending.append((ready_s, float(cfo_hz), float(t_s), token))
        self.submitted += 1
        return ready_s

    def drain(self, now_s: float) -> list[BackendAnswer]:
        """Deliver every answer that is ready by ``now_s``, in FIFO
        order (submissions are time-ordered, so the FIFO is too)."""
        answers = []
        while self._pending and self._pending[0][0] <= now_s:
            ready_s, cfo_hz, submitted_s, token = self._pending.popleft()
            account_id = self.directory.resolve(cfo_hz, now_s=ready_s)
            answers.append(
                BackendAnswer(account_id, cfo_hz, submitted_s, ready_s, token)
            )
            self.delivered += 1
        return answers

    def report(
        self,
        tag_id: int,
        cfo_hz: float,
        station: str,
        zone: str,
        x_m: float,
        t_s: float,
        localized: bool = False,
    ) -> None:
        """Ride a recovered identity back to the directory over this
        link (e.g. a pull-miss fallback decode) — the one sanctioned
        path for billing-plane writes; the ``backhaul-policy`` analyzer
        rule keeps callers from reaching around it. The answer channel
        carries it in the same round, so it applies at ``t_s``. A plain
        account-store directory (no ``report``) absorbs it silently."""
        directory = self.directory
        if hasattr(directory, "report"):
            directory.report(
                tag_id, cfo_hz, station, zone, x_m, t_s, localized=localized
            )

    def flush(self) -> list[BackendAnswer]:
        """End of run: deliver everything still in flight."""
        if not self._pending:
            return []
        return self.drain(self._pending[-1][0])

    @property
    def pending(self) -> int:
        return len(self._pending)
