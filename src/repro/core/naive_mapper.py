"""Naive in-order baseline mapper (CCA [10] / DIF [14] style).

Places trace instructions in strict program order: each instruction goes to
the first (shallowest) stripe that has a free PE of the right kind and can
deliver its operands, without any resource-aware prioritization — the
behaviour Section 2.2 shows failing on Figure 2's examples.  Only this
placement policy differs from :class:`ResourceAwareMapper`, whose trace
analysis, FIFO limits, operand routing, live-value propagation and
``map.*`` events it inherits, so the ablation benchmark compares two
policies and nothing else.
"""

from __future__ import annotations

from repro.core.mapper import MappingFailure, ResourceAwareMapper
from repro.core.priority import priority_gen, PRIORITY_INFEASIBLE


class NaiveMapper(ResourceAwareMapper):
    """Strict program-order, first-fit mapping."""

    def _schedule(self, ops, placed, tables, consumers, last_def) -> int:
        free_pes = {pe for stripe in self._stripes for pe in stripe}
        # Stripe boundaries whose live values moved on; boundary 0 holds
        # none (nothing defines a value there), so it counts as done.
        propagated = 1
        for op in ops:
            first = max(
                (placed[token[1]].stripe + 1
                 for token in op.operand_tokens if token[0] == "pos"),
                default=0,
            )
            for stripe in self._stripes[first:]:
                # Keep propagation in step with how deep placement has gone.
                while propagated < stripe.index:
                    live = self._live_tokens(placed, consumers, last_def)
                    tables.propagate(propagated, live)
                    propagated += 1
                for pe in stripe:
                    if pe not in free_pes or pe.pool != op.pool:
                        continue
                    plan = priority_gen(
                        pe, op.operand_tokens, tables, stripe.index
                    )
                    if plan.score != PRIORITY_INFEASIBLE:
                        break
                else:
                    continue  # no feasible PE here: try the next stripe
                self._place(op, pe, stripe.index, plan, placed, tables)
                free_pes.remove(pe)
                break
            else:
                raise MappingFailure(
                    "no_feasible_pe", f"no feasible PE for op {op.pos}"
                )
        return len(ops)  # one instruction per cycle, in order
