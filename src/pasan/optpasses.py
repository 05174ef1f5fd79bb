"""Check-reduction passes: redundant check removal and same-lock fast
verification.  Both are gated on instruction-level dominance and on the
absence of possibly-freeing operations along every covered path, which
one forward bitset dataflow per function decides.

Passes only delete checks or downgrade them to fast checks; they never
add work, so full + fast never exceeds the pre-pass full count.
"""
from __future__ import annotations

from itertools import chain

from .errors import InstrumentationError
from .miniir import BUILTIN_SIGS, Function, Inst, Namer, Program

PASS_SETS = {
    "none": (),
    "redundant": ("redundant",),
    "samelock": ("samelock",),
    "all": ("redundant", "samelock"),
}


def run_passes(prog: Program, opts: str) -> Program:
    """Run the selected passes in order into a new program that shares
    each instruction they leave as it is (prog itself if none is
    selected).  "redundant" deletes a check that one of the same register
    and width covers and rewires its results to the cover; "samelock"
    downgrades a check that one of the same gep root covers to a fast
    check against the id the cover observed.  No pass adds a free, so
    the freeing functions are computed once, from prog."""
    if opts not in PASS_SETS:
        raise InstrumentationError(f"unknown optimization selection {opts!r}")
    passes = PASS_SETS[opts]
    if not passes:
        return prog
    out = Program(list(prog.globals), dict(prog.externs), {}, prog.instrumented, prog.next_uid)
    freeing = functions_may_free(prog)
    for name, src in prog.functions.items():
        blocks = {label: list(block) for label, block in src.blocks.items()}
        func = out.functions[name] = Function(src.name, list(src.params), src.ret, blocks,
                                              src.dom, src.names)
        if "redundant" in passes:
            subst = {
                inst.result: blocks[label][idx].result
                for _, inst, (label, idx) in _covered_checks(
                    prog, func, freeing, lambda inst: (inst.args[0], inst.width))
            }
            if subst:
                for label, block in blocks.items():
                    blocks[label] = [i.renamed(subst) for i in block if i.result not in subst]
                if func.names is not None:
                    func.names = func.names - subst.keys()
        if "samelock" in passes:
            # Each gep result's root, in one walk: a gep's base is defined
            # before it in reverse post-order, its root already known.
            roots = {}
            for label in func.dominance().order:
                for inst in blocks[label]:
                    if inst.op == "gep":
                        roots[inst.result] = roots.get(inst.args[0], inst.args[0])
            namer = None
            for (lb, i), inst, (cl, ci) in _covered_checks(
                    prog, func, freeing, lambda inst: roots.get(inst.args[0], inst.args[0])):
                cover = blocks[cl][ci]
                if cover.result2 is None:  # the cover's copy takes its place
                    cover = blocks[cl][ci] = cover.copy()
                    namer = namer or Namer(func)
                    cover.result2 = namer.fresh("%tk")
                fast = blocks[lb][i] = inst.copy()
                fast.op, fast.args = "fastcheck", (inst.args[0], cover.result2, cover.args[0])
            if namer:
                func.names = namer.used
    return out


def _covered_checks(prog: Program, func: Function, freeing: set[str], group_key):
    """Yield (loc, check, cover loc) for each check of func that a kept check
    of the same group (by group_key(check)) dominates with no
    possibly-freeing instruction on any path between them.  A check
    holding a token is never covered: a fast check elsewhere reads that
    token.

    One forward dataflow over Python-int bitsets decides this (available
    expressions: Aho, Lam, Sethi and Ullman, Compilers, 9.2.6).  The
    checks are numbered in reverse post-order, and three sets of them
    are carried to a fixpoint: `done`, those run on every path to a
    point, which are exactly the checks dominating it; `seen`, those
    run on some path to it; and `freed`, those with a possibly-freeing
    instruction on some path from them to it.  A walk in reverse
    post-order then covers a check by the highest bit of done & ~freed
    & kept & its group: its nearest kept dominator, numbered after
    every farther one.  Only the nearest counts: a free after it also
    lies after every farther one.  Covered checks are yielded group by
    group in reverse post-order, the order same-lock names new tokens
    in."""
    # Per block: its checks and possibly-freeing instructions (None), in order.
    by_key, events = {}, {}
    for label, block in func.blocks.items():
        events[label] = block_events = []
        for idx, inst in enumerate(block):
            if inst.op == "check":
                loc = (label, idx)
                by_key.setdefault(group_key(inst), []).append(loc)
                block_events.append(loc)
            elif inst.op in ("call", "free") and _may_free(prog, freeing, inst):
                block_events.append(None)
    if all(len(locs) == 1 for locs in by_key.values()):
        return
    dom = func.dominance()
    order, preds, latches = dom.order, dom.preds, dom.latches
    locs = [loc for label in order for loc in events[label] if loc is not None]
    bit = {loc: 1 << i for i, loc in enumerate(locs)}
    mask = {}
    for group in by_key.values():
        mask.update(dict.fromkeys(group, sum(map(bit.__getitem__, group))))
    # Per block: every check's bit, and those before its last free.
    gen, before_free = {}, {}
    for label in order:
        gen[label] = 0
        for loc in events[label]:
            if loc is None:
                before_free[label] = gen[label]
            else:
                gen[label] |= bit[loc]
    ins: dict = {}
    outs = {label: (-1, 0, 0) for label in order}  # done starts full: a must-set
    changed = True
    while changed:
        changed = False
        for label in order:
            done, seen, freed = 0 if label == order[0] else -1, 0, 0
            for p in preds[label]:
                done &= outs[p][0]
                seen |= outs[p][1]
                freed |= outs[p][2]
            ins[label] = done, seen, freed
            if label in before_free:
                freed |= seen | before_free[label]
            out = (done | gen[label], seen | gen[label], freed)
            if out != outs[label]:
                outs[label] = out
                changed = changed or label in latches  # else every reader saw it this pass
    covers, kept = {}, 0
    for label in order:
        done, seen, freed = ins[label]
        for loc in events[label]:
            if loc is None:
                freed |= seen
                continue
            inst = func.blocks[label][loc[1]]
            avail = done & ~freed & kept & mask[loc]
            if inst.result2 is None and avail:
                covers[loc] = locs[avail.bit_length() - 1]
            else:
                kept |= bit[loc]
            done |= bit[loc]
            seen |= bit[loc]
    for group in by_key.values():
        for loc in sorted(group, key=bit.__getitem__):
            if loc in covers:
                yield loc, func.blocks[loc[0]][loc[1]], covers[loc]


def _may_free(prog: Program, freeing: set[str], inst: Inst) -> bool:
    """May inst, a `free` or a `call`, free memory?  `free`, `__pa_free`,
    a call to an internal function in `freeing`, and any call to code
    outside the program and the runtime (conservatively) do."""
    if inst.op == "free":
        return True
    if inst.callee in prog.functions:
        return inst.callee in freeing
    return inst.callee == "__pa_free" or inst.callee not in BUILTIN_SIGS


def functions_may_free(prog: Program) -> set[str]:
    """Names of internal functions that may free memory, transitively:
    each that frees by an instruction of its own (by _may_free, internal
    calls aside), then, by a worklist over callers, each that calls one."""
    callers: dict[str, list[str]] = {name: [] for name in prog.functions}
    freeing: set[str] = set()
    for name, f in prog.functions.items():
        for inst in chain.from_iterable(f.blocks.values()):
            if inst.callee in callers:
                callers[inst.callee].append(name)
            elif inst.op in ("call", "free") and _may_free(prog, freeing, inst):
                freeing.add(name)
    work = list(freeing)
    while work:
        for caller in callers[work.pop()]:
            if caller not in freeing:
                freeing.add(caller)
                work.append(caller)
    return freeing


def count_checks(prog: Program) -> tuple[int, int]:
    """Static (full, fast) check counts."""
    ops = [inst.op for func in prog.functions.values()
           for inst in chain.from_iterable(func.blocks.values())]
    return ops.count("check"), ops.count("fastcheck")
