"""SFT-Streamlet — Strengthened Fault Tolerance for Streamlet (Figure 11)."""

from repro.protocols.sft_streamlet.replica import SFTStreamletReplica

__all__ = ["SFTStreamletReplica"]
