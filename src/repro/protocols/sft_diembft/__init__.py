"""SFT-DiemBFT — Strengthened Fault Tolerance for DiemBFT (Figure 4)."""

from repro.protocols.sft_diembft.replica import SFTDiemBFTReplica

__all__ = ["SFTDiemBFTReplica"]
