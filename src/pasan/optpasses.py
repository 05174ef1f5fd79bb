"""Check-reduction passes: redundant check removal and same-lock fast
verification.  Both are gated on instruction-level dominance and on the
absence of possibly-freeing operations along every covered path, which
one search per function decides for both passes at once.

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
    """Run the selected passes on validated prog into a new program that
    shares each instruction they leave as it is (prog if none is selected).
    "redundant" deletes a check that one of the same register and width
    covers and rewires its results to the cover; "samelock" downgrades a
    check that one of the same gep root covers to a fast check against
    the id the cover observed.  One cover search per function decides
    both, as if in that order, and one rewrite applies them: downgrades
    and tokens by index, then renaming and deletion.  No pass adds a
    free, so the freeing functions are computed once, from prog."""
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
                                              src.dom, src.names, src.types)
        subst, downgrades = _covered_checks(prog, func, freeing, passes)
        if subst:  # the deleted results' names are free again
            func.names = func.names - subst.keys()
        namer = None
        for (lb, i), (cl, ci) in downgrades:
            cover = blocks[cl][ci]
            if cover.result2 is None:  # the cover's copy takes its place
                cover = blocks[cl][ci] = cover.copy()
                namer = namer or Namer(func)
                cover.result2 = namer.fresh("%tk")
            fast = blocks[lb][i] = blocks[lb][i].copy()
            fast.op, fast.args = "fastcheck", (fast.args[0], cover.result2, cover.args[0])
        if namer:
            func.names = namer.used
        if subst:
            for label, block in blocks.items():
                blocks[label] = [i.renamed(subst) for i in block if i.result not in subst]
    return out


def _covered_checks(prog: Program, func: Function, freeing: set[str], passes):
    """Decide func's checks for the selected passes at once: the results
    of those redundant removal deletes, each mapped to its cover's, and
    the locations of those same-lock downgrades, each with its cover's,
    in walk order.  A check is covered when a kept check of its group
    dominates it with no possibly-freeing instruction on any path
    between them.  Redundant groups checks by register as written and
    width, and a check it deletes is kept by no group; same-lock groups
    them by gep root, read through that renaming.  A check holding a
    token is never covered: a fast check elsewhere reads that token.

    The checks are numbered in reverse post-order, so those dominating a
    point rise in number toward it.  Those with a possible free on some
    path from them to the point form a prefix of that chain: split such
    a path at the check's last run, and either a free follows that run
    or the check lies on a cycle through a free, and each holds for
    every farther dominator too.  So one integer per point, `freed`, the
    highest number in the prefix, stands for the set, and one forward
    dataflow carries it to a fixpoint: a join takes the maximum over its
    predecessors; a possibly-freeing instruction sets it to the number
    of the last check numbered before it; a check sets it to its own
    number less one, or to its own number in a cyclic strong component
    holding a free, which the second walk of Kosaraju's algorithm finds
    (Sharir, 1981).  Deleting a check moves no other's prefix.  A walk
    of the dominator tree in preorder then keeps one stack of kept
    checks per group, popped by the `pre`/`end` intervals of their
    blocks, as dominator-scoped value numbering scopes its table
    (Briggs, Cooper and Simpson, "Value Numbering", 1997); the top
    covers a check numbered above its `freed`.  The events scan runs in
    reverse post-order, so it finds each gep's base's root first."""
    redundant, samelock = "redundant" in passes, "samelock" in passes
    dom = func.dom
    order, preds, latches, pre = dom.order, dom.preds, dom.latches, dom.pre
    # Per block: the index of each check, and None for each possibly-freeing instruction.
    events, roots, subst, downgrades = {}, {}, {}, []
    for label in order:
        events[label] = block_events = []
        for idx, inst in enumerate(func.blocks[label]):
            if inst.op == "check":
                block_events.append(idx)
            elif inst.op == "gep":
                roots[inst.result] = roots.get(inst.args[0], inst.args[0])
            elif inst.op in ("call", "free") and _may_free(prog, freeing, inst):
                block_events.append(None)
    comp = {}  # Kosaraju's second walk: each block's strong component, by its first block
    for root in order if latches else ():
        if root not in comp:
            comp[root], stack = root, [root]
            while stack:
                for p in preds[stack.pop()]:
                    if p not in comp:
                        comp[p] = root
                        stack.append(p)
    cyclic = {comp[label] for label in comp if None in events[label]
              and any(comp[p] == comp[label] for p in preds[label])}
    # Each block's first check number, freed as each check runs and at each block's end.
    first, before, outs = {}, {}, dict.fromkeys(order, -1)
    changed = True
    while changed:
        changed, n = False, -1  # the number of the last check met, in reverse post-order
        for label in order:
            first[label] = n + 1
            loops = comp.get(label) in cyclic  # a check here may run again after a free
            freed = max(map(outs.__getitem__, preds[label]), default=-1)
            for idx in events[label]:
                if idx is None:
                    freed = n
                else:
                    n += 1
                    before[n] = freed
                    freed = n if loops else min(freed, n - 1)
            if freed != outs[label]:
                outs[label] = freed
                changed = changed or label in latches  # else every reader saw it this pass
    # Kept checks by group, keyed by a (register, width) pair for redundant
    # removal and by a register for same-lock, so one table holds both.
    stacks = {}
    for label in sorted(order, key=pre.__getitem__):  # not RPO, which interleaves subtrees
        checks = [idx for idx in events[label] if idx is not None]
        for n, idx in enumerate(checks, first[label]):
            inst = func.blocks[label][idx]
            addr = inst.args[0]
            root = roots.get(addr, addr)
            for key in [(addr, inst.width)] * redundant + [subst.get(root, root)] * samelock:
                stack = stacks.setdefault(key, [])
                while stack and stack[-1][0] <= pre[label]:  # the top's block no longer dominates
                    stack.pop()
                if inst.result2 is None and stack and stack[-1][1] > before[n]:
                    if type(key) is str:
                        downgrades.append(((label, idx), stack[-1][2]))
                    else:  # deleted, so it keeps no same-lock group
                        subst[inst.result] = stack[-1][3]
                        break
                else:
                    stack.append((dom.end[label], n, (label, idx), inst.result))
    return subst, downgrades


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
