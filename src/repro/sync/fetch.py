"""One peer-fetch loop: request → retry → rotate, for every pull.

Block-sync and snapshot transfer both pull something from one peer at
a time: the first request goes to ``(id + 1) % n``, an unanswered or
useless one is retried against the next peer (never self) after a
fixed delay, every rotation bumps the nonce so a late answer from an
earlier peer cannot be mistaken for the current one, and after
``3·(n − 1)`` attempts the fetch is dropped until a fresh signal
restarts it.  :class:`PeerFetcher` is that loop, once; each manager owns
one instance with its own nonce sequence and in-flight table, and
supplies what differs: how a request is built and sent, the retry
delay, and when a fetch is resolved without an answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Fetch:
    """One in-flight fetch: ``target`` being chased from ``peer``."""

    target: object  # the fetch-table key
    nonce: int
    peer: int
    attempts: int = 1
    #: Block-sync tip fetches: resolved once certified past this round.
    #: Snapshots: the lowest checkpoint height worth installing.
    goal: int = 0
    timer: object = field(default=None, repr=False)


class PeerFetcher:
    """Request → retry → rotate over peers, keyed by fetch target.

    ``send_request(fetch)`` builds, signs, traces and sends one request
    to ``fetch.peer``; ``resolved(fetch)`` says whether the retry timer
    may drop the fetch instead of rotating; ``rotations`` is the
    manager's peer-rotation counter.
    """

    def __init__(self, replica, send_request, retry_delay: float, resolved,
                 rotations) -> None:
        self.replica = replica
        self.context = replica.context
        self.inflight: dict = {}
        self._send_request = send_request
        self._retry_delay = retry_delay
        self._resolved = resolved
        self._c_rotations = rotations
        self._next_nonce = 0
        # Give up after every peer has been tried a few times.
        self._max_attempts = 3 * max(1, replica.config.n - 1)

    def start(self, target, goal: int = 0) -> None:
        n = self.replica.config.n
        if n < 2:
            return
        self._next_nonce += 1
        fetch = Fetch(
            target=target, nonce=self._next_nonce,
            peer=(self.replica.replica_id + 1) % n, goal=goal,
        )
        self.inflight[target] = fetch
        self._send(fetch)

    def match(self, src: int, msg):
        """The fetch ``msg`` answers: sent by the peer asked, under the
        nonce of the current attempt; ``None`` otherwise."""
        if src != msg.sender:
            return None
        for fetch in self.inflight.values():
            if fetch.nonce == msg.nonce and fetch.peer == src:
                return fetch
        return None

    def done(self, fetch: Fetch) -> None:
        """The fetch is over (answered, or satisfied out of band)."""
        self._cancel_timer(fetch)
        self.inflight.pop(fetch.target, None)

    def rotate(self, fetch: Fetch) -> None:
        """Ask the next peer now, or drop the fetch once the budget is
        spent."""
        self._cancel_timer(fetch)
        if fetch.attempts >= self._max_attempts:
            del self.inflight[fetch.target]
            return
        n = self.replica.config.n
        fetch.peer = (fetch.peer + 1) % n
        if fetch.peer == self.replica.replica_id:
            fetch.peer = (fetch.peer + 1) % n
        fetch.attempts += 1
        self._c_rotations.inc()
        self._next_nonce += 1
        fetch.nonce = self._next_nonce
        self._send(fetch)

    def _send(self, fetch: Fetch) -> None:
        self._send_request(fetch)
        fetch.timer = self.context.set_timer(
            self._retry_delay, self._retry, fetch.target, fetch.nonce
        )

    def _retry(self, target, nonce: int) -> None:
        """Retry timer: the peer never answered (or answered uselessly)."""
        if self.replica.crashed:
            return
        fetch = self.inflight.get(target)
        if fetch is None or fetch.nonce != nonce:
            return  # resolved or superseded in the meantime
        fetch.timer = None  # fired; nothing to cancel
        if self._resolved(fetch):
            self.done(fetch)
        else:
            self.rotate(fetch)

    def _cancel_timer(self, fetch: Fetch) -> None:
        if fetch.timer is not None:
            self.context.cancel_timer(fetch.timer)
            fetch.timer = None
