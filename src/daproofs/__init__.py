"""Fraud proofs and data-availability sampling for blockchain light clients.

Subpackages by concern:

- merkle, smt: index-binding Merkle trees and the sparse key-value tree
- erasure, rs2d: the GF(2^16) codec and the 2D erasure-coded commitment
- state, block: the account machine, share framing, and block building
- fraud: transition and codec fraud proofs, generation and verification
- prob: sampling probabilities with exact and Monte Carlo evaluation
- sim: deterministic network simulation of the sampling protocol
- cli: command-line front end (`daproofs`); import it as daproofs.cli
"""

from . import block, erasure, fraud, merkle, prob, rs2d, sim, smt, state

__all__ = [
    "block",
    "erasure",
    "fraud",
    "merkle",
    "prob",
    "rs2d",
    "sim",
    "smt",
    "state",
]

__version__ = "0.1.0"
