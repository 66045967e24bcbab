"""Byzantine behaviour mixins as class factories.

Each factory takes an honest replica class (either protocol family)
and returns a subclass with one specific deviation:

* :func:`make_silent` — never votes (Byzantine fault that attacks
  liveness of strong commits; Theorem 3's ``t``);
* :func:`make_equivocating_leader` — proposes two conflicting blocks
  per led round, sending each to half of the network (creates the
  forks that raise honest markers);
* :func:`make_withholding_leader` — proposes only to a subset,
  forcing the rest to time out;
* :func:`make_lazy_voter` — delays every vote by a fixed amount
  (models the paper's "stragglers ... out-of-sync due to slow
  network/computation", Section 4.1);
* :func:`make_marker_liar` — votes like an honest replica but always
  reports ``marker = 0``, hiding its fork history (the Byzantine lie
  SFT's analysis budgets for: up to ``f`` liars inside any endorser
  set, Theorem 2);
* :func:`make_sync_withholder` — proposes and votes honestly but
  never answers block-sync requests, starving catch-up through that
  peer (exercises the :class:`~repro.sync.manager.SyncManager` retry
  and peer-rotation path).
"""

from __future__ import annotations

from repro.types.messages import VoteMsg


def make_silent(replica_class):
    """A replica that participates in everything except voting."""

    class SilentReplica(replica_class):
        def _maybe_vote(self, msg):
            del msg

    SilentReplica.__name__ = f"Silent{replica_class.__name__}"
    return SilentReplica


def make_equivocating_leader(replica_class):
    """A leader that proposes two conflicting blocks per led round.

    The first block goes to replicas with ids below ``n/2``, the second
    to the rest; the leader also processes its first proposal itself.
    Both blocks extend the leader's best parent, differing in their
    commit-log tag, so they conflict at the same round — the raw
    material of Appendix C.  Works on both protocol families (DiemBFT
    leaders extend ``qc_high``; Streamlet leaders their longest
    certified tip) through the shared ``_proposal_basis`` /
    ``_signed_proposal`` seam.
    """

    class EquivocatingLeader(replica_class):
        def _propose(self, round_number, reason):
            del reason
            basis = self._proposal_basis(round_number)
            if basis is None:
                return
            parent_qc, tc = basis
            proposals = [
                self._signed_proposal(
                    parent_qc,
                    round_number,
                    commit_log=(("equivocation", variant),),
                    tc=tc,
                )
                for variant in (0, 1)
            ]
            self._c_blocks_proposed.inc()
            half = self.config.n // 2
            for dst in range(self.config.n):
                variant = 0 if dst < half else 1
                self.context.send(dst, proposals[variant])

    EquivocatingLeader.__name__ = f"Equivocating{replica_class.__name__}"
    return EquivocatingLeader


def make_withholding_leader(replica_class, reach: float = 0.5):
    """A leader that sends its proposal only to the first ``reach`` share."""

    class WithholdingLeader(replica_class):
        def _propose(self, round_number, reason):
            del reason
            basis = self._proposal_basis(round_number)
            if basis is None:
                return
            parent_qc, tc = basis
            proposal = self._signed_proposal(parent_qc, round_number, tc=tc)
            self._c_blocks_proposed.inc()
            cutoff = int(self.config.n * reach)
            for dst in range(cutoff):
                self.context.send(dst, proposal)
            if self.replica_id >= cutoff:
                self.context.send(self.replica_id, proposal)

    WithholdingLeader.__name__ = f"Withholding{replica_class.__name__}"
    return WithholdingLeader


def make_lazy_voter(replica_class, delay: float = 0.5):
    """A correct replica whose votes leave ``delay`` seconds late.

    DiemBFT-family replicas send votes point-to-point to the next
    leader; Streamlet-family replicas multicast them — both exits are
    intercepted so the behaviour is honest-but-late on either family.
    """

    class LazyVoter(replica_class):
        def _maybe_vote(self, msg):
            original_send = self.context.send
            original_multicast = self.context.multicast
            deferred = []

            def capture_send(dst, message):
                if isinstance(message, VoteMsg):
                    deferred.append((original_send, (dst, message)))
                else:
                    original_send(dst, message)

            def capture_multicast(message, include_self=True):
                if isinstance(message, VoteMsg):
                    deferred.append((original_multicast, (message, include_self)))
                else:
                    original_multicast(message, include_self=include_self)

            self.context.send = capture_send
            self.context.multicast = capture_multicast
            try:
                super()._maybe_vote(msg)
            finally:
                self.context.send = original_send
                self.context.multicast = original_multicast
            for dispatch, args in deferred:
                self.context.set_timer(delay, dispatch, *args)

    LazyVoter.__name__ = f"Lazy{replica_class.__name__}"
    return LazyVoter


def make_marker_liar(replica_class):
    """A replica whose strong-votes always carry ``marker = 0``.

    On SFT protocols the lie makes every one of its votes endorse the
    whole ancestor path regardless of its actual fork history; the
    strong-vote is re-signed so signature verification still passes
    (a Byzantine replica signs its own lie).  On plain protocols the
    vote has no marker and the behaviour degenerates to honest.
    """

    class MarkerLiar(replica_class):
        def _make_vote(self, block):
            vote = super()._make_vote(block)
            if not hasattr(vote, "marker"):
                return vote
            if vote.marker == 0 and not vote.intervals:
                return vote
            lied = type(vote)(
                block_id=vote.block_id,
                block_round=vote.block_round,
                height=vote.height,
                voter=vote.voter,
                marker=0,
                intervals=(),
            )
            return self._signed(lied)

    MarkerLiar.__name__ = f"MarkerLiar{replica_class.__name__}"
    return MarkerLiar


def make_sync_withholder(replica_class):
    """A replica that silently drops every block-sync request.

    Everything else — proposing, voting, serving its own fetches — is
    honest, so the deviation is observable only as peers' catch-up
    requests timing out and rotating away.  With sync disabled the
    behaviour degenerates to honest.
    """

    class SyncWithholder(replica_class):
        def _on_sync_request(self, src, msg):
            del src, msg  # never serve

    SyncWithholder.__name__ = f"SyncWithholding{replica_class.__name__}"
    return SyncWithholder


def make_amnesia(replica_class):
    """A replica that restarts *without* its durable voting record.

    The behaviour itself is perfectly honest — it follows the protocol
    before the crash and after the restart.  The fault is purely one of
    durability: ``wal_restore = False`` makes the cluster rebuild it
    with no WAL, so the reborn instance has forgotten every round it
    voted in and will happily vote again — the double-vote the
    invariant oracle must catch.  This is the differential proving the
    WAL is load-bearing: the identical crash/restart schedule with
    ``recover`` (WAL reload) in place of ``amnesia`` commits safely.
    """

    class Amnesiac(replica_class):
        wal_restore = False

    Amnesiac.__name__ = f"Amnesiac{replica_class.__name__}"
    return Amnesiac


#: Behaviour name → class factory, for declarative fault mixes
#: (:mod:`repro.experiments`) and the schedule fuzzer
#: (:mod:`repro.fuzz`).  Factories taking extra knobs (reach, delay)
#: are called with those knobs by the spec layer.
BEHAVIOR_FACTORIES = {
    "silent": make_silent,
    "equivocate": make_equivocating_leader,
    "withhold": make_withholding_leader,
    "lazy": make_lazy_voter,
    "marker_lie": make_marker_liar,
    "sync_withhold": make_sync_withholder,
    "amnesia": make_amnesia,
}
