"""Numerics for quantum two-party protocols.

Four capabilities, one per module:

* :mod:`qtwoparty.ot` — the partially secure oblivious-transfer protocol
  built on unambiguous state discrimination, with both single-round cheats;
* :mod:`qtwoparty.bc` — bit commitment composed from that transfer, its
  purification attacks, and the f + d >= 1 obstruction;
* :mod:`qtwoparty.consistency` — the defining constraints of ideal
  oblivious transfer as residuals, plus multi-restart feasibility search;
* :mod:`qtwoparty.qkd` — Monte-Carlo entanglement-based key distribution
  under coincidence post-selection and the setting-matched demon attack.

:mod:`qtwoparty.linalg` supplies the shared integer check, spectral and
POVM helpers and the trace distance, and :mod:`qtwoparty.cli` the
manifest-backed command-line interface. The modules are the API: each
name is imported from the module that defines it.
"""

__version__ = "0.1.0"

from . import bc, consistency, linalg, ot, qkd
