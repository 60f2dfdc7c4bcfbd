"""Seeded random program generator and the differential gate.

Generates structurally valid, terminating ``.spam`` programs (bounded
counted loops, balanced branches, in-bounds memory traffic, clamped
multiplies so values never approach float-conversion overflow) and
checks, per program, that

1. ``repro.lang.ingest`` accepts it as written, under each optimization
   pass alone, and under the full pipeline: every pass keeps the
   interpreter's printed words, and each lowered ISA program prints
   them too, and
2. the DynaSpAM simulation of the lowered trace ends on the same cycle
   count and every ``PipelineStats`` counter under both engine
   tiers (fast path vs interpreted reference).

Runnable directly — CI's frontend-smoke job does::

    python -m repro.lang.fuzz --count 50 --seed 20260808
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.lang import PASSES, LangError, ingest

#: Multiplication results are clamped ``rem`` this prime so value
#: magnitudes stay far below float-conversion overflow in ``div``.
_MUL_CLAMP = 99991

_SAFE_MUTATE_OPS = ("add", "sub", "and", "or", "xor", "min", "max")
_CMP_OPS = ("lt", "le", "gt", "ge", "eq", "ne")


class FuzzFailure(AssertionError):
    """A differential mismatch, carrying the offending program."""

    def __init__(self, message: str, source: str) -> None:
        super().__init__(f"{message}\n--- program ---\n{source}")
        self.source = source


class _Gen:
    """One random program (text), grown statement by statement."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.lines: list[str] = []
        self.counter = 0
        self.ints: list[str] = []
        self.bools: list[str] = []
        self.helpers: list[str] = []

    def fresh(self, prefix: str = "v") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def emit(self, line: str) -> None:
        self.lines.append("  " + line)

    def label(self, name: str) -> None:
        self.lines.append(f".{name}:")

    # -- value sources -------------------------------------------------
    def const_int(self) -> str:
        v = self.fresh("c")
        self.emit(f"{v}: int = const {self.rng.randint(-100, 100)};")
        self.ints.append(v)
        return v

    def some_int(self) -> str:
        if not self.ints or self.rng.random() < 0.2:
            return self.const_int()
        return self.rng.choice(self.ints)

    def some_bool(self) -> str:
        if not self.bools or self.rng.random() < 0.3:
            b = self.fresh("b")
            self.emit(f"{b}: bool = {self.rng.choice(_CMP_OPS)} "
                      f"{self.some_int()} {self.some_int()};")
            self.bools.append(b)
            return b
        return self.rng.choice(self.bools)

    # -- statements ----------------------------------------------------
    def stmt_arith(self) -> None:
        kind = self.rng.random()
        v = self.fresh()
        if kind < 0.15 and self.helpers:
            self.emit(f"{v}: int = call @{self.rng.choice(self.helpers)} "
                      f"{self.some_int()} {self.some_int()};")
        elif kind < 0.30:
            t, m = self.fresh("t"), self.fresh("m")
            self.emit(f"{t}: int = mul {self.some_int()} {self.some_int()};")
            self.emit(f"{m}: int = const {_MUL_CLAMP};")
            self.emit(f"{v}: int = rem {t} {m};")
        elif kind < 0.42:
            self.emit(f"{v}: int = div {self.some_int()} {self.some_int()};")
        elif kind < 0.52:
            amt = self.fresh("s")
            self.emit(f"{amt}: int = const {self.rng.randint(0, 12)};")
            op = self.rng.choice(("shl", "shr"))
            self.emit(f"{v}: int = {op} {self.some_int()} {amt};")
        elif kind < 0.60:
            self.emit(f"{v}: int = abs {self.some_int()};")
        elif kind < 0.66:
            self.emit(f"{v}: int = id {self.some_int()};")
        else:
            op = self.rng.choice(_SAFE_MUTATE_OPS)
            self.emit(f"{v}: int = {op} {self.some_int()} {self.some_int()};")
        self.ints.append(v)

    def stmt_bool(self) -> None:
        b = self.fresh("b")
        if self.bools and self.rng.random() < 0.4:
            if self.rng.random() < 0.5:
                self.emit(f"{b}: bool = not "
                          f"{self.rng.choice(self.bools)};")
            else:
                op = self.rng.choice(("and", "or", "xor"))
                self.emit(f"{b}: bool = {op} {self.rng.choice(self.bools)} "
                          f"{self.rng.choice(self.bools)};")
        else:
            self.emit(f"{b}: bool = {self.rng.choice(_CMP_OPS)} "
                      f"{self.some_int()} {self.some_int()};")
        self.bools.append(b)

    def stmt_print(self) -> None:
        if self.bools and self.rng.random() < 0.25:
            self.emit(f"print {self.rng.choice(self.bools)};")
        else:
            self.emit(f"print {self.some_int()};")

    def _mutate_existing(self) -> None:
        """Reassign an existing int var (definite assignment preserved)."""
        v = self.rng.choice(self.ints)
        op = self.rng.choice(_SAFE_MUTATE_OPS)
        self.emit(f"{v}: int = {op} {v} {self.some_int()};")

    def _scoped(self):
        """Snapshot of the available-var lists; vars defined on only
        some paths must not escape their branch (definite assignment)."""
        return len(self.ints), len(self.bools)

    def _unscope(self, snapshot) -> None:
        n_ints, n_bools = snapshot
        del self.ints[n_ints:]
        del self.bools[n_bools:]

    def stmt_branch(self) -> None:
        c = self.some_bool()
        n = self.fresh("L")
        self.emit(f"br {c} .then{n} .else{n};")
        self.label(f"then{n}")
        scope = self._scoped()
        for _ in range(self.rng.randint(1, 2)):
            self._mutate_existing()
        if self.rng.random() < 0.5:
            self.stmt_print()
        self._unscope(scope)
        self.emit(f"jmp .join{n};")
        self.label(f"else{n}")
        self._mutate_existing()
        self._unscope(scope)
        self.emit(f"jmp .join{n};")
        self.label(f"join{n}")

    def stmt_loop(self) -> None:
        i, n, one = self.fresh("i"), self.fresh("n"), self.fresh("one")
        c, lbl = self.fresh("lc"), self.fresh("L")
        # Loop-invariant fodder defined before the loop.
        inv_a, inv_b = self.some_int(), self.some_int()
        self.emit(f"{i}: int = const 0;")
        self.emit(f"{n}: int = const {self.rng.randint(2, 6)};")
        self.emit(f"{one}: int = const 1;")
        self.label(f"head{lbl}")
        self.emit(f"{c}: bool = lt {i} {n};")
        self.emit(f"br {c} .body{lbl} .end{lbl};")
        self.label(f"body{lbl}")
        scope = self._scoped()
        inv = self.fresh("inv")
        self.emit(f"{inv}: int = add {inv_a} {inv_b};")
        v = self.rng.choice(self.ints)
        self.emit(f"{v}: int = add {v} {inv};")
        for _ in range(self.rng.randint(0, 2)):
            self._mutate_existing()
        if self.rng.random() < 0.4:
            self.emit(f"print {self.rng.choice(self.ints)};")
        self._unscope(scope)
        self.emit(f"{i}: int = add {i} {one};")
        self.emit(f"jmp .head{lbl};")
        self.label(f"end{lbl}")

    def stmt_memory(self) -> None:
        size = self.rng.randint(1, 6)
        sz, p, idx, q, r = (self.fresh("sz"), self.fresh("p"),
                            self.fresh("ix"), self.fresh("q"),
                            self.fresh("r"))
        self.emit(f"{sz}: int = const {size};")
        self.emit(f"{p}: ptr = alloc {sz};")
        self.emit(f"{idx}: int = rem {self.some_int()} {sz};")
        self.emit(f"{q}: ptr = ptradd {p} {idx};")
        self.emit(f"store {q} {self.some_int()};")
        self.emit(f"store {p} {self.some_int()};")
        self.emit(f"{r}: int = load {q};")
        self.ints.append(r)

    # -- whole program -------------------------------------------------
    def helper_source(self, name: str) -> str:
        rng = self.rng
        lines = [f"@{name}(a: int, b: int): int {{"]
        avail = ["a", "b"]
        for k in range(rng.randint(1, 3)):
            v = f"h{k}"
            op = rng.choice(_SAFE_MUTATE_OPS + ("div",))
            lines.append(f"  {v}: int = {op} {rng.choice(avail)} "
                         f"{rng.choice(avail)};")
            avail.append(v)
        lines.append(f"  ret {avail[-1]};")
        lines.append("}")
        return "\n".join(lines)

    def generate(self) -> str:
        parts = []
        for k in range(self.rng.randint(0, 2)):
            name = f"helper{k}"
            parts.append(self.helper_source(name))
            self.helpers.append(name)
        stmts = (
            (self.stmt_arith, 0.30), (self.stmt_bool, 0.12),
            (self.stmt_print, 0.16), (self.stmt_branch, 0.14),
            (self.stmt_loop, 0.16), (self.stmt_memory, 0.12),
        )
        self.const_int()
        self.const_int()
        for _ in range(self.rng.randint(4, 9)):
            r = self.rng.random()
            acc = 0.0
            for stmt, weight in stmts:
                acc += weight
                if r < acc:
                    stmt()
                    break
            else:
                self.stmt_arith()
        self.stmt_print()
        parts.append("@main {\n" + "\n".join(self.lines) + "\n}")
        return "\n\n".join(parts) + "\n"


def generate_program(seed: int) -> str:
    """Deterministic random ``.spam`` source for one seed."""
    return _Gen(random.Random(seed)).generate()


# ---------------------------------------------------------------------------
# Differential gate
# ---------------------------------------------------------------------------
def tier_cycles(lowered, trace) -> dict[str, dict]:
    """DynaSpAM cycles and full stats for the same trace under both tiers.

    Keyed ``fastpath=0`` / ``fastpath=1``; each value holds ``cycles`` and
    ``stats`` (``stats.as_dict()``), so the fast path's occurrence probe
    and compiled evaluators answer to the reference walk on every
    counter, not only on the cycle total.  Simulates directly (engine
    choice is deliberately not part of the run-cache identity, so going
    through the cache would compare a result with itself).
    """
    from repro.core import DynaSpAM
    from repro.engine import use_fastpath

    tiers: dict[str, dict] = {}
    for fastpath in (False, True):
        with use_fastpath(fastpath):
            result = DynaSpAM().run(trace, lowered.program)
        tiers[f"fastpath={int(fastpath)}"] = {
            "cycles": result.cycles,
            "stats": result.stats.as_dict(),
        }
    return tiers


def differential_check(source: str, filename: str = "<fuzz>") -> dict:
    """Assert the full contract for one program; returns a summary."""
    try:
        plain = ingest(source, filename)
        for name in PASSES:
            ingest(source, filename, (name,))
        full = ingest(source, filename, tuple(PASSES))
    except LangError as exc:
        raise FuzzFailure(str(exc), source) from None
    tiers = tier_cycles(plain.lowered, plain.run.trace)
    reference, fast = tiers["fastpath=0"], tiers["fastpath=1"]
    if fast != reference:
        differing = sorted(
            name for name, value in reference["stats"].items()
            if fast["stats"][name] != value)
        raise FuzzFailure(
            f"{filename}: engine tiers disagree: cycles "
            f"{reference['cycles']} vs {fast['cycles']}, stats differ "
            f"on {differing}", source)
    return {
        "output_words": len(plain.output),
        "interp_dynamic": plain.reference.dynamic_count,
        "lowered_dynamic": plain.run.dynamic_count,
        "cycles": reference["cycles"],
        "optimized_dynamic": full.run.dynamic_count,
    }


def run_fuzz(count: int, seed: int, verbose: bool = False) -> dict:
    """Run the differential gate over ``count`` seeded programs."""
    totals = {"programs": count, "seed": seed, "output_words": 0,
              "interp_dynamic": 0, "lowered_dynamic": 0}
    for k in range(count):
        program_seed = seed + k
        source = generate_program(program_seed)
        summary = differential_check(
            source, filename=f"<fuzz:{program_seed}>")
        for key in ("output_words", "interp_dynamic", "lowered_dynamic"):
            totals[key] += summary[key]
        if verbose:
            print(f"  seed {program_seed}: {summary}")
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lang.fuzz",
        description="differential fuzz gate: interpreter vs lowered ISA "
                    "program under both engine tiers")
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        totals = run_fuzz(args.count, args.seed, verbose=args.verbose)
    except FuzzFailure as exc:
        print(f"repro.lang.fuzz: FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"fuzz: {totals['programs']} programs ok (seed {totals['seed']}, "
          f"{totals['output_words']} words printed, "
          f"{totals['interp_dynamic']} interp / "
          f"{totals['lowered_dynamic']} lowered dynamic instructions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
