"""Chain-based BFT SMR protocols.

The package follows the paper's prototype (Figure 1): every protocol
is a Steady State rule set (propose / vote / lock / commit) plus a
Pacemaker (round synchronization).  Five protocols are provided:

* :mod:`repro.protocols.diembft`       — DiemBFT (Figure 2), the substrate;
* :mod:`repro.protocols.sft_diembft`   — SFT-DiemBFT (Figure 4), the paper's
  main contribution, with marker and generalized-interval vote modes;
* :mod:`repro.protocols.fbft`          — the FBFT-adapted baseline
  (Appendix B) with quadratic extra-vote dissemination;
* :mod:`repro.protocols.streamlet`     — Streamlet (Figure 10);
* :mod:`repro.protocols.sft_streamlet` — SFT-Streamlet (Figure 11).
"""

from repro.protocols.base import BaseReplica, ReplicaConfig, ReplicaContext
from repro.protocols.pacemaker import Pacemaker

__all__ = [
    "BaseReplica",
    "ReplicaConfig",
    "ReplicaContext",
    "Pacemaker",
]
