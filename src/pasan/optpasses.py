"""Check-reduction passes: redundant check removal and same-lock fast
verification.  Both are gated on instruction-level dominance and on the
absence of possibly-freeing operations along every covered path.

Passes only delete checks or downgrade them to fast checks; they never
add work, so full + fast never exceeds the pre-pass full count.
"""
from __future__ import annotations

import copy

from .errors import InstrumentationError
from .miniir import Dominance, Function, Inst, Program, may_free_between

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


def _check_sites(func: Function):
    return [
        ((label, idx), inst)
        for label, idx, inst in func.insts()
        if inst.op == "check"
    ]


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


def remove_redundant_checks(prog: Program) -> Program:
    """Delete any check dominated by another check of the same register
    and width with no possibly-freeing operation in between; uses of the
    deleted check's results are rewired to the dominating check."""
    out = copy.deepcopy(prog)
    for func in out.functions.values():
        sites = _check_sites(func)
        if len(sites) < 2:
            continue
        dom = Dominance(func)
        dead: set[int] = set()
        subst: dict[str, str] = {}
        groups: dict[tuple[str, int], list] = {}
        for loc, inst in sites:
            groups.setdefault((inst.args[0], inst.width), []).append((loc, inst))
        for members in groups.values():
            for loc_a, inst_a in members:
                for loc_b, inst_b in members:
                    if inst_a.uid == inst_b.uid or inst_b.uid in dead:
                        continue
                    if inst_a.uid in dead or inst_b.result2 is not None:
                        continue  # never drop a check other code takes a token from
                    if dom.inst_dominates(loc_a, loc_b) and \
                            not may_free_between(out, func, loc_a, loc_b):
                        dead.add(inst_b.uid)
                        subst[inst_b.result] = inst_a.result

        def resolve(reg: str) -> str:
            while reg in subst:
                reg = subst[reg]
            return reg

        for label in func.blocks:
            kept = []
            for inst in func.blocks[label]:
                if inst.uid in dead:
                    continue
                inst.args = tuple(
                    resolve(a) if isinstance(a, str) and a.startswith("%") else a
                    for a in inst.args
                )
                inst.incomings = tuple(
                    (lbl, resolve(v) if isinstance(v, str) and v.startswith("%") else v)
                    for lbl, v in inst.incomings
                )
                kept.append(inst)
            func.blocks[label] = kept
    return out


def _derivation_root(func: Function, reg: str) -> str:
    defs = {inst.result: inst for _, _, inst in func.insts() if inst.result}
    while True:
        inst = defs.get(reg)
        if inst is None or inst.op != "gep":
            return reg
        base = inst.args[0]
        if not (isinstance(base, str) and base.startswith("%")):
            return reg
        reg = base


def same_lock_optimize(prog: Program) -> Program:
    """Group checks whose pointers derive from one base register; each
    member dominated by a retained member with no free in between is
    downgraded to a fast check against the id observed there."""
    out = copy.deepcopy(prog)
    for func in out.functions.values():
        sites = _check_sites(func)
        if len(sites) < 2:
            continue
        dom = Dominance(func)
        rpo = _rpo_index(func)
        used = {reg for reg, _ in func.params}
        for _, _, inst in func.insts():
            used.update(inst.defs())

        def fresh_token() -> str:
            counter = 0
            while f"%tk{counter}" in used:
                counter += 1
            name = f"%tk{counter}"
            used.add(name)
            return name

        groups: dict[str, list] = {}
        for loc, inst in sites:
            groups.setdefault(_derivation_root(func, inst.args[0]), []).append((loc, inst))
        for members in groups.values():
            if len(members) < 2:
                continue
            members.sort(key=lambda item: (rpo[item[0][0]], item[0][1]))
            retained: list = []
            for loc, inst in members:
                anchor = next(
                    (
                        (d_loc, d_inst)
                        for d_loc, d_inst in retained
                        if dom.inst_dominates(d_loc, loc)
                        and not may_free_between(out, func, d_loc, loc)
                    ),
                    None,
                )
                if anchor is None:
                    retained.append((loc, inst))
                    continue
                d_loc, d_inst = anchor
                if d_inst.result2 is None:
                    d_inst.result2 = fresh_token()
                label, idx = loc
                func.blocks[label][idx] = Inst(
                    "fastcheck",
                    result=inst.result,
                    width=inst.width,
                    args=(inst.args[0], d_inst.result2, d_inst.args[0]),
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
