"""Check-reduction passes: redundant check removal and same-lock fast
verification.  Both are gated on instruction-level dominance and on the
absence of possibly-freeing operations along every covered path.

Passes only delete checks or downgrade them to fast checks; they never
add work, so full + fast never exceeds the pre-pass full count.
"""
from __future__ import annotations

import copy

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
    if opts not in PASS_SETS:
        raise InstrumentationError(f"unknown optimization selection {opts!r}")
    for name in PASS_SETS[opts]:
        prog = remove_redundant_checks(prog) if name == "redundant" else same_lock_optimize(prog)
    return prog


def _rpo_index(func: Function) -> dict[str, int]:
    """Reverse post-order of a depth-first walk, kept on an explicit
    stack so CFG depth is not bounded by the recursion limit."""
    order: list[str] = []
    seen = {func.entry}
    stack = [(func.entry, iter(func.successors(func.entry)))]
    while stack:
        label, succs = stack[-1]
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(func.successors(succ))))
                break
        else:
            stack.pop()
            order.append(label)
    return {label: i for i, label in enumerate(reversed(order))}


def _covered_checks(prog: Program, func: Function, freeing: set[str], group_key):
    """Yield (loc, check, cover) for each check of func that a kept check
    of the same group (by group_key(check)) dominates with no
    possibly-freeing instruction in between.  Each group is visited in
    reverse post-order, so every check that dominates another is decided
    first and a cover is always a kept check.  A check holding a token
    is never covered: a fast check elsewhere reads that token."""
    by_key: dict = {}
    for label, idx, inst in func.insts():
        if inst.op == "check":
            by_key.setdefault(group_key(inst), []).append(((label, idx), inst))
    groups = [members for members in by_key.values() if len(members) > 1]
    if not groups:
        return
    dom = Dominance(func)
    facts = FreeFacts(prog, func, freeing)
    rpo = _rpo_index(func)
    for members in groups:
        members.sort(key=lambda item: (rpo[item[0][0]], item[0][1]))
        kept: list = []
        for loc, inst in members:
            # at most one kept check covers inst; the nearest is likeliest
            cover = None if inst.result2 is not None else next(
                (k_inst for k_loc, k_inst in reversed(kept)
                 if dom.inst_dominates(k_loc, loc) and not may_free_between(facts, k_loc, loc)),
                None,
            )
            if cover is None:
                kept.append((loc, inst))
            else:
                yield loc, inst, cover


def remove_redundant_checks(prog: Program) -> Program:
    """Delete any check dominated by another check of the same register
    and width with no possibly-freeing operation in between; uses of the
    deleted check's results are rewired to the dominating check."""
    out = copy.deepcopy(prog)
    freeing = functions_may_free(out)
    for func in out.functions.values():
        subst = {
            inst.result: cover.result
            for _, inst, cover in _covered_checks(
                out, func, freeing, lambda inst: (inst.args[0], inst.width))
        }
        if not subst:
            continue
        for label, block in func.blocks.items():
            kept = []
            for inst in block:
                if inst.result in subst:
                    continue
                inst.args = tuple(subst.get(a, a) for a in inst.args)
                inst.incomings = tuple((lbl, subst.get(v, v)) for lbl, v in inst.incomings)
                kept.append(inst)
            func.blocks[label] = kept
    return out


def same_lock_optimize(prog: Program) -> Program:
    """Group checks whose pointers derive from one base register; each
    member dominated by a retained member with no free in between is
    downgraded to a fast check against the id observed there."""
    out = copy.deepcopy(prog)
    freeing = functions_may_free(out)
    for func in out.functions.values():
        defs = {inst.result: inst for _, _, inst in func.insts() if inst.result}

        def gep_root(inst: Inst) -> str:
            reg = inst.args[0]
            while reg in defs and defs[reg].op == "gep":
                reg = defs[reg].args[0]
            return reg

        namer = Namer(func)
        for (label, idx), inst, cover in _covered_checks(out, func, freeing, gep_root):
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
