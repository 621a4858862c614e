"""Reference implementations of the compiler passes (test oracles).

Each module holds the straightforward version of a pass that ``src/``
replaced with a faster one.  The equivalence tests and the perf smokes
compare the production pass against it bit for bit; no compile path calls
these.

* :mod:`tests.oracles.cost` — the pairwise Eq. (6) cost and its three
  terms.
* :mod:`tests.oracles.simplify` — the batched engine's per-candidate
  scores, and the ``simplify`` stage through the copy-and-rescore scan.
* :mod:`tests.oracles.ordering` — the per-pair Tetris ordering loop and
  its ``order`` stage.
* :mod:`tests.oracles.sabre` — the dict-based SABRE placement and router.
* :mod:`tests.oracles.reference_passes` — the back-end passes
  (cancellation, rotation merging, rebase, metrics, SU(4) consolidation).
* :mod:`tests.oracles.dense` — Kronecker-product Pauli matrices, the
  per-term dense sum and the ``expm`` product of Pauli exponentiations.
"""
