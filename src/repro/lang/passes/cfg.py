"""Control-flow analysis over IR functions.

Blocks, successor/predecessor edges, dominators, natural loops, and
global liveness — the shared substrate of the semantic checker
(definite assignment), LICM, and anything else that needs to reason
about paths.  All analyses operate on an immutable :class:`CFG` built
from a :class:`~repro.lang.ast.Function`; transforms rebuild the
function with :func:`to_function`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast import Function, Instr, Label


@dataclass
class Block:
    """One basic block: an optional leading label and its instructions."""

    label: str | None
    instrs: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr | None:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None


def form_blocks(fn: Function) -> list[Block]:
    """Split a function body into basic blocks.

    A label starts a new block; a terminator ends one.  Instructions
    after a terminator but before the next label are unreachable yet
    preserved (they form an anonymous block), so transforms never
    silently drop code the user wrote.
    """
    blocks: list[Block] = []

    def push(block: Block) -> None:
        # Anonymous empty blocks are pure fallthrough (nothing can jump
        # to them) — drop them instead of cluttering the CFG.
        if block.instrs or block.label is not None:
            blocks.append(block)

    current = Block(label=None)
    for item in fn.items:
        if isinstance(item, Label):
            push(current)
            current = Block(label=item.name)
        else:
            current.instrs.append(item)
            if item.is_terminator:
                push(current)
                current = Block(label=None)
    push(current)
    if not blocks:
        blocks.append(Block(label=None))
    return blocks


@dataclass
class CFG:
    """Blocks in layout order plus successor/predecessor index edges."""

    blocks: list[Block]
    names: list[str]                      # unique per-block names
    index: dict[str, int]                 # label -> block index
    succs: list[list[int]]
    preds: list[list[int]]

    @property
    def entry(self) -> int:
        return 0


def build_cfg(fn: Function) -> CFG:
    blocks = form_blocks(fn)
    names: list[str] = []
    index: dict[str, int] = {}
    used = {b.label for b in blocks if b.label is not None}
    anon = 0
    for i, block in enumerate(blocks):
        if block.label is None:
            while f"__b{anon}" in used:
                anon += 1
            name = f"__b{anon}"
            anon += 1
        else:
            name = block.label
        names.append(name)
        index[name] = i

    succs: list[list[int]] = []
    for i, block in enumerate(blocks):
        term = block.terminator
        if term is None:
            succs.append([i + 1] if i + 1 < len(blocks) else [])
        elif term.op == "ret":
            succs.append([])
        else:                              # br / jmp
            succs.append([index[label] for label in term.labels])
    preds: list[list[int]] = [[] for _ in blocks]
    for i, targets in enumerate(succs):
        for t in targets:
            preds[t].append(i)
    return CFG(blocks, names, index, succs, preds)


def to_function(fn: Function, blocks: list[Block]) -> Function:
    """Reassemble a function from (possibly transformed) blocks."""
    items: list[Label | Instr] = []
    for block in blocks:
        if block.label is not None:
            items.append(Label(block.label))
        items.extend(block.instrs)
    return Function(fn.name, fn.params, fn.ret, tuple(items), fn.pos)


def normalize_terminators(fn: Function) -> Function:
    """Give every block an explicit terminator.

    Fallthrough becomes ``jmp``; falling off the end of the function
    becomes ``ret``.  Needed before any transform that reorders blocks
    or redirects edges (LICM's preheader insertion).
    """
    cfg = build_cfg(fn)
    blocks: list[Block] = []
    for i, block in enumerate(cfg.blocks):
        instrs = list(block.instrs)
        # Every block needs a name once edges are explicit.
        label = cfg.names[i] if i > 0 or block.label is not None else block.label
        if block.terminator is None:
            if i + 1 < len(cfg.blocks):
                instrs.append(Instr("jmp", labels=(cfg.names[i + 1],)))
            else:
                instrs.append(Instr("ret"))
        blocks.append(Block(label, instrs))
    return to_function(fn, blocks)


def reachable(cfg: CFG) -> set[int]:
    seen = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        for t in cfg.succs[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def dominators(cfg: CFG) -> list[set[int]]:
    """``dom[i]`` = blocks dominating block ``i`` (iterative dataflow).

    Unreachable blocks get the full set (vacuous truth), which keeps
    loop detection conservative about them.
    """
    n = len(cfg.blocks)
    everything = set(range(n))
    dom = [everything.copy() for _ in range(n)]
    dom[cfg.entry] = {cfg.entry}
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if i == cfg.entry:
                continue
            pred_doms = [dom[p] for p in cfg.preds[i]]
            new = set.intersection(*pred_doms) if pred_doms else everything.copy()
            new.add(i)
            if new != dom[i]:
                dom[i] = new
                changed = True
    return dom


@dataclass
class Loop:
    """A natural loop: header plus the set of body blocks (incl. header)."""

    header: int
    body: set[int]
    back_edges: list[int]                 # latch block indices


def natural_loops(cfg: CFG) -> list[Loop]:
    """Back edges (``t -> h`` with ``h`` dominating ``t``) and their loops."""
    dom = dominators(cfg)
    live = reachable(cfg)
    loops: dict[int, Loop] = {}
    for tail in sorted(live):
        for head in cfg.succs[tail]:
            if head in dom[tail]:
                loop = loops.setdefault(head, Loop(head, {head}, []))
                loop.back_edges.append(tail)
                # Walk predecessors backward from the latch to the header.
                stack = [tail]
                while stack:
                    node = stack.pop()
                    if node in loop.body:
                        continue
                    loop.body.add(node)
                    stack.extend(cfg.preds[node])
    return [loops[h] for h in sorted(loops)]


def liveness(cfg: CFG) -> tuple[list[set[str]], list[set[str]]]:
    """Per-block variable liveness: ``(live_in, live_out)``."""
    n = len(cfg.blocks)
    use: list[set[str]] = []
    defs: list[set[str]] = []
    for block in cfg.blocks:
        u: set[str] = set()
        d: set[str] = set()
        for instr in block.instrs:
            u.update(a for a in instr.args if a not in d)
            if instr.dest is not None:
                d.add(instr.dest)
        use.append(u)
        defs.append(d)
    live_in = [set() for _ in range(n)]
    live_out = [set() for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for i in reversed(range(n)):
            out: set[str] = set()
            for s in cfg.succs[i]:
                out |= live_in[s]
            new_in = use[i] | (out - defs[i])
            if out != live_out[i] or new_in != live_in[i]:
                live_out[i] = out
                live_in[i] = new_in
                changed = True
    return live_in, live_out


def definitely_assigned(cfg: CFG, params: set[str]) -> list[set[str] | None]:
    """Forward must-analysis: vars assigned on *every* path to block entry.

    Returns one set per block (``None`` for unreachable blocks).  The
    checker uses this to reject reads of possibly-uninitialized
    variables, which is what lets the interpreter and the lowered
    program agree without defining a default value for uninitialized
    registers.
    """
    n = len(cfg.blocks)
    gen: list[set[str]] = []
    for block in cfg.blocks:
        g: set[str] = set()
        for instr in block.instrs:
            if instr.dest is not None:
                g.add(instr.dest)
        gen.append(g)
    assigned: list[set[str] | None] = [None] * n
    assigned[cfg.entry] = set(params)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if i == cfg.entry:
                continue
            incoming = [assigned[p] | gen[p] for p in cfg.preds[i]
                        if assigned[p] is not None]
            if not incoming:
                continue            # not (yet) reachable
            new = set.intersection(*incoming)
            if assigned[i] is None or new != assigned[i]:
                assigned[i] = new
                changed = True
    return assigned
