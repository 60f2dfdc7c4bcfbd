"""Branch direction and target prediction.

A tournament direction predictor (bimodal + gshare with a per-PC chooser)
and a direct-mapped BTB for taken-branch targets.  The Table 4 core's
return-address stack is not modeled because the kernel ISA has no calls;
``CoreConfig.ras_entries`` is listed and keyed but drives nothing.
The bimodal side learns strongly biased loop branches within a couple of
iterations; the gshare side captures history-correlated patterns; the
chooser favors whichever has been right.  The fetch stage of DynaSpAM also
queries this predictor for the *next three branch outcomes* when deciding
whether a hot trace is about to execute (paper Section 3.1).
"""

from __future__ import annotations

from repro.ooo.config import CoreConfig


class BranchPredictor:
    """Tournament (bimodal/gshare) + BTB, trace-driven semantics."""

    def __init__(self, config: CoreConfig | None = None) -> None:
        config = config or CoreConfig()
        self.kind = config.predictor_kind
        if self.kind not in ("tournament", "bimodal", "gshare"):
            raise ValueError(f"unknown predictor kind {self.kind!r}")
        self.index_bits = config.predictor_bits
        self.table_size = 1 << self.index_bits
        self.mask = self.table_size - 1
        self.gshare = [1] * self.table_size    # weakly not-taken
        self.bimodal = [1] * self.table_size
        self.chooser = [1] * self.table_size   # <2 favors bimodal
        self.history = 0
        self.btb: set[int] = set()
        self.btb_entries = config.btb_entries

    # ------------------------------------------------------------------
    # Direction prediction
    # ------------------------------------------------------------------
    def _indices(self, pc: int, history: int) -> tuple[int, int]:
        pc_index = (pc >> 2) & self.mask
        gshare_index = pc_index ^ (history & self.mask)
        return pc_index, gshare_index

    def peek(self, pc: int, history: int) -> tuple[bool, int]:
        """Predict under an explicit speculative history (no update);
        returns the prediction and the history it shifts into.

        The DynaSpAM fetch stage walks the static program several branches
        ahead when probing the configuration cache; each predicted outcome
        shifts the speculative history it uses for the next prediction.
        The prediction is :meth:`predict_and_update`'s under the same
        tables and history.
        """
        mask = self.mask
        pc_index = (pc >> 2) & mask
        if self.kind == "bimodal" or (
                self.kind == "tournament" and self.chooser[pc_index] < 2):
            taken = self.bimodal[pc_index] >= 2
        else:
            taken = self.gshare[pc_index ^ (history & mask)] >= 2
        return taken, ((history << 1) | taken) & mask

    def predict_and_update(self, pc: int, actual_taken: bool) -> bool:
        """Predict the branch at ``pc``, then train on the actual outcome.

        Returns the *prediction* so the caller can detect mispredicts.
        """
        pc_index, gshare_index = self._indices(pc, self.history)
        bimodal_taken = self.bimodal[pc_index] >= 2
        gshare_taken = self.gshare[gshare_index] >= 2
        if self.kind == "bimodal":
            prediction = bimodal_taken
        elif self.kind == "gshare":
            prediction = gshare_taken
        else:
            use_gshare = self.chooser[pc_index] >= 2
            prediction = gshare_taken if use_gshare else bimodal_taken

        # Train both component tables.
        for table, index in ((self.bimodal, pc_index), (self.gshare, gshare_index)):
            if actual_taken:
                if table[index] < 3:
                    table[index] += 1
            elif table[index] > 0:
                table[index] -= 1
        # Train the chooser toward the component that was right.
        if bimodal_taken != gshare_taken:
            if gshare_taken == actual_taken:
                if self.chooser[pc_index] < 3:
                    self.chooser[pc_index] += 1
            elif self.chooser[pc_index] > 0:
                self.chooser[pc_index] -= 1

        self.history = ((self.history << 1) | int(actual_taken)) & self.mask
        return prediction

    # ------------------------------------------------------------------
    # Target prediction
    # ------------------------------------------------------------------
    def btb_lookup(self, pc: int) -> bool:
        """True if the BTB knows the target of the branch at ``pc``."""
        hit = pc in self.btb
        if not hit:
            if len(self.btb) >= self.btb_entries:
                self.btb.pop()
            self.btb.add(pc)
        return hit
