"""The paper's contribution: Speculative Concurrency Control protocols.

* :class:`repro.core.scc_ks.SCCkS` — the k-shadow algorithm (§2.1) with
  pluggable shadow-replacement policies (LBFO and value/deadline-aware
  alternatives).
* :class:`repro.core.scc_2s.SCC2S` — the two-shadow special case (§2.2).
* :class:`repro.core.scc_cb.SCCCB` — conflict-based SCC (unlimited
  shadows, one per conflicting transaction).
* :class:`repro.core.scc_dc.SCCDC` — value-cognizant deferred commitment
  (§3.2) built on finish/adoption probabilities.
* :class:`repro.core.scc_vw.SCCVW` — the voted-waiting approximation
  (§3.3) used in the paper's evaluation.
* :mod:`repro.core.shadow_counts` — analytic shadow-count model for
  SCC-OB vs SCC-CB (§2, Figure 3).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AccessIndex": "repro.core.conflict_table",
    "ConflictRecord": "repro.core.conflict_table",
    "ConflictTable": "repro.core.conflict_table",
    "DeadlineAwareReplacement": "repro.core.replacement",
    "LatestBlockedFirstOut": "repro.core.replacement",
    "ReplacementPolicy": "repro.core.replacement",
    "ValueAwareReplacement": "repro.core.replacement",
    "SCC2S": "repro.core.scc_2s",
    "SCCProtocolBase": "repro.core.scc_base",
    "SCCTxnRuntime": "repro.core.scc_base",
    "SCCCB": "repro.core.scc_cb",
    "SCCDC": "repro.core.scc_dc",
    "SCCkS": "repro.core.scc_ks",
    "SCCVW": "repro.core.scc_vw",
    "Shadow": "repro.core.shadow",
    "ShadowMode": "repro.core.shadow",
})
