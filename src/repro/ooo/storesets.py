"""Store-Sets memory dependence prediction (Chrysos & Emer [9]).

The predictor learns which (load PC, store PC) pairs alias by merging their
PCs into a common *store set* when a memory-order violation occurs.  At
dispatch, a load whose PC maps to a store set must wait for the last
in-flight store of that set; stores in a set are serialized among
themselves.  DynaSpAM reuses the same unit for fabric-resident memory
operations (paper Section 3.2, "Intra- and Inter-Trace Memory Ordering").
"""

from __future__ import annotations


class StoreSetPredictor:
    """SSIT + LFST organization of the Store-Sets predictor."""

    def __init__(self, ssit_entries: int = 1024) -> None:
        self.ssit_entries = ssit_entries
        # Store Set Identifier Table: PC hash -> store set id.
        self._ssit: dict[int, int] = {}
        # Last Fetched Store Table: store set id -> seq of last store.
        self._lfst: dict[int, int] = {}
        self._next_set_id = 0
        #: Bumped whenever the learned sets (SSIT) change, so callers that
        #: cache ``same_set``-derived predictions can validate with one
        #: integer comparison instead of re-querying per memory op.
        self.generation = 0

    def _slot(self, pc: int) -> int:
        return (pc >> 2) % self.ssit_entries

    def _set_of(self, pc: int) -> int | None:
        return self._ssit.get(self._slot(pc))

    # ------------------------------------------------------------------
    # Dispatch-time queries
    # ------------------------------------------------------------------
    def store_dispatched(self, pc: int, seq: int) -> int | None:
        """Record an in-flight store; return the seq of the store it must
        order behind (stores within one set are serialized), or None."""
        set_id = self._set_of(pc)
        if set_id is None:
            return None
        previous = self._lfst.get(set_id)
        self._lfst[set_id] = seq
        return previous

    def load_dispatched(self, pc: int) -> int | None:
        """Return the seq of the in-flight store this load should wait for,
        or None if the load is predicted independent."""
        set_id = self._set_of(pc)
        if set_id is None:
            return None
        return self._lfst.get(set_id)

    # ------------------------------------------------------------------
    # Violation training
    # ------------------------------------------------------------------
    def train_violation(self, load_pc: int, store_pc: int) -> None:
        """Merge the load and store into a common store set."""
        self.generation += 1
        load_slot = self._slot(load_pc)
        store_slot = self._slot(store_pc)
        load_set = self._ssit.get(load_slot)
        store_set = self._ssit.get(store_slot)
        if load_set is None and store_set is None:
            set_id = self._next_set_id
            self._next_set_id += 1
            self._ssit[load_slot] = set_id
            self._ssit[store_slot] = set_id
        elif load_set is None:
            self._ssit[load_slot] = store_set
        elif store_set is None:
            self._ssit[store_slot] = load_set
        else:
            # Both assigned: merge into the smaller id (declining-set rule).
            winner = min(load_set, store_set)
            self._ssit[load_slot] = winner
            self._ssit[store_slot] = winner

    def same_set(self, load_pc: int, store_pc: int) -> bool:
        """True if both PCs currently map to the same store set.

        DynaSpAM consults this for memory operations resident on the fabric
        (the configuration keeps only PC, type, and relative order).
        """
        load_set = self._set_of(load_pc)
        return load_set is not None and load_set == self._set_of(store_pc)
