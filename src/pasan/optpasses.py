"""Check-reduction passes: redundant check removal and same-lock fast
verification.  Both are gated on instruction-level dominance and on the
absence of possibly-freeing operations along every covered path.

Passes only delete checks or downgrade them to fast checks; they never
add work, so full + fast never exceeds the pre-pass full count.
"""
from __future__ import annotations

from functools import cache, partial

from .errors import InstrumentationError
from .miniir import (Dominance, FreeFacts, Function, Inst, Namer, Program,
                     functions_may_free, may_free_between)

PASS_SETS = {
    "none": (),
    "redundant": ("redundant",),
    "samelock": ("samelock",),
    "all": ("redundant", "samelock"),
}


def run_passes(prog: Program, opts: str) -> Program:
    """Run the selected passes in order on one copy of prog (prog itself
    if none is selected).  No pass changes the CFG or adds a free, so the
    freeing functions and each function's Dominance are computed once."""
    if opts not in PASS_SETS:
        raise InstrumentationError(f"unknown optimization selection {opts!r}")
    passes = PASS_SETS[opts]
    if not passes:
        return prog
    out = prog.copy()
    freeing = functions_may_free(out)
    for func in out.functions.values():
        dom_of = cache(partial(Dominance, func))  # built when a check group first needs it
        if "redundant" in passes:
            subst = {
                inst.result: cover.result
                for _, inst, cover in _covered_checks(
                    out, func, freeing, lambda inst: (inst.args[0], inst.width), dom_of)
            }
            if subst:
                for label, block in func.blocks.items():
                    func.blocks[label] = [inst for inst in block if inst.result not in subst]
                for _, _, inst in func.insts():
                    inst.args = tuple(subst.get(a, a) for a in inst.args)
                    inst.incomings = tuple((lbl, subst.get(v, v)) for lbl, v in inst.incomings)
        if "samelock" in passes:
            defs = {inst.result: inst for _, _, inst in func.insts() if inst.result}

            def gep_root(inst: Inst) -> str:
                reg = inst.args[0]
                while reg in defs and defs[reg].op == "gep":
                    reg = defs[reg].args[0]
                return reg

            namer = Namer(func)
            for (label, idx), inst, cover in _covered_checks(out, func, freeing, gep_root, dom_of):
                if cover.result2 is None:
                    cover.result2 = namer.fresh("%tk")
                func.blocks[label][idx] = Inst(
                    "fastcheck",
                    result=inst.result,
                    width=inst.width,
                    args=(inst.args[0], cover.result2, cover.args[0]),
                    uid=inst.uid,
                )
    return out


def remove_redundant_checks(prog: Program) -> Program:
    """Delete any check dominated by another check of the same register
    and width with no possibly-freeing operation in between; uses of the
    deleted check's results are rewired to the dominating check."""
    return run_passes(prog, "redundant")


def same_lock_optimize(prog: Program) -> Program:
    """Group checks whose pointers derive from one base register; each
    member dominated by a retained member with no free in between is
    downgraded to a fast check against the id observed there."""
    return run_passes(prog, "samelock")


def _covered_checks(prog: Program, func: Function, freeing: set[str], group_key, dom_of):
    """Yield (loc, check, cover) for each check of func that a kept check
    of the same group (by group_key(check)) dominates with no
    possibly-freeing instruction in between.  A check holding a token
    is never covered: a fast check elsewhere reads that token.  dom_of()
    gives func's Dominance; it is called only when some group needs it.

    Each group is decided in dominator-tree preorder, with a stack of
    the kept checks that dominate the current one, so every cover is a
    kept check.  Only the nearest of them is tried: dominators form a
    chain, so a free between the nearest and the check also lies after
    every farther one.  Covered checks are yielded group by group in
    reverse post-order, the order same-lock names new tokens in."""
    by_key: dict = {}
    for label, idx, inst in func.insts():
        if inst.op == "check":
            by_key.setdefault(group_key(inst), []).append(((label, idx), inst))
    groups = [members for members in by_key.values() if len(members) > 1]
    if not groups:
        return
    dom = dom_of()
    facts = FreeFacts(prog, func, freeing)
    for members in groups:
        members.sort(key=lambda item: (dom.pre[item[0][0]], item[0][1]))
        covers = {}
        kept: list = []  # each dominates the next
        for loc, inst in members:
            while kept and not dom.inst_dominates(kept[-1][0], loc):
                kept.pop()
            if (inst.result2 is None and kept
                    and not may_free_between(facts, kept[-1][0], loc)):
                covers[loc] = kept[-1][1]
            else:
                kept.append((loc, inst))
        members.sort(key=lambda item: (dom.rpo[item[0][0]], item[0][1]))
        for loc, inst in members:
            if loc in covers:
                yield loc, inst, covers[loc]


def count_checks(prog: Program) -> tuple[int, int]:
    """Static (full, fast) check counts."""
    full = fast = 0
    for func in prog.functions.values():
        for _, _, inst in func.insts():
            if inst.op == "check":
                full += 1
            elif inst.op == "fastcheck":
                fast += 1
    return full, fast
