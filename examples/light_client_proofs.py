#!/usr/bin/env python3
"""Section 5: proving strong commits to a light client.

Runs SFT-DiemBFT, then plays the role of a wallet app that holds only
the replica public keys: it consumes certified commit logs (carried
inside blocks and covered by the blocks' QCs) and learns, with no
access to the chain, how strong each block's commit has become.
Tampered proofs are rejected.

Run:  python examples/light_client_proofs.py
"""

from repro import LightClient, ScenarioSpec
from repro.lightclient import ProofError, StrongCommitProof, build_proof
from repro.types.quorum_cert import QuorumCertificate


def main() -> None:
    spec = ScenarioSpec(
        protocol="sft-diembft",
        n=7,
        topology="uniform",
        uniform_delay=0.010,
        jitter=0.002,
        duration=8.0,
        round_timeout=0.5,
        seeds=(9,),
        block_batch_count=10,
        block_batch_bytes=1_000,
    )
    cluster = spec.build().run()
    replica = cluster.replicas[0]

    client = LightClient(
        cluster.registry, n=spec.n, f=spec.resolved_f()
    )
    print(f"light client initialized with the PKI only "
          f"(n={spec.n}, f={spec.resolved_f()})\n")

    proofs_verified = 0
    entries_accepted = 0
    sample_proof = None
    for block in replica.store.all_blocks():
        proof = build_proof(replica.store, block.id())
        if proof is None:
            continue
        accepted = client.verify(proof)
        proofs_verified += 1
        entries_accepted += len(accepted)
        if sample_proof is None and accepted:
            sample_proof = proof
    print(f"verified {proofs_verified} certified commit-log proofs "
          f"({entries_accepted} level updates accepted)")

    strongest = sorted(
        client.proven_levels.items(), key=lambda item: -item[1]
    )[:5]
    print("\nstrongest proven commits (block id prefix → level):")
    for block_id_bytes, level in strongest:
        print(f"  {block_id_bytes.hex()[:10]}… → {level}-strong")

    # Tamper with a proof: drop votes below the quorum.
    if sample_proof is not None:
        truncated = QuorumCertificate(
            block_id=sample_proof.qc.block_id,
            round=sample_proof.qc.round,
            height=sample_proof.qc.height,
            votes=sample_proof.qc.votes[:2],
        )
        try:
            client.verify(
                StrongCommitProof(block=sample_proof.block, qc=truncated)
            )
            print("\ntampered proof accepted — BUG")
        except ProofError as error:
            print(f"\ntampered proof rejected as expected: {error}")


if __name__ == "__main__":
    main()
