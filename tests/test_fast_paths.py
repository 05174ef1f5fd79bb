"""The one-frame success paths of pac_auth, pac_sign, the two checks and
the signature table the full check and protected free consult, raw
loads and stores, the runtime's shadow reads and writes in allocation,
registration, retirement and free, and the memset/memcpy wrappers,
against references built from the slow-path primitives.

Each of these handles its common case inline and hands every other
input to the shared failure code.  The references below are those
functions as written before the inlining, over compute_pac, pac_field,
modifier_for, _mac, with_pac_field, _check_access, _check_shadow_range,
_load_bytes, _store_bytes, shadow stores of one word at a time, id_at,
shadow_fill and shadow_clear; each input must give the same value, or
the same exception with the same report or message, and leave the same
MAC table, counters, program bytes and shadow words behind.
"""
import random
import sys
from array import array
from types import SimpleNamespace

import pytest

from helpers import config_id, fields, lock_bits
from pasan import runtime as runtime_module
from pasan.errors import LimitExceeded, PreconditionViolated, ViolationError, ViolationKind
from pasan.cli import _build
from pasan.interp import _HANDLERS, Interpreter, run
from pasan.memspace import (GLOBALS_BASE, HEAP_BASE, PAGE_SIZE, STACK_TOP, MemSpace, Region,
                            RegionMap, shadow_of)
from pasan.miniir import Inst
from pasan.pacore import (
    MASK64,
    RESERVED_BIT,
    AddressConfig,
    PacKey,
    _mac,
    compute_pac,
    modifier_for,
    pac_auth,
    pac_field,
    pac_sign,
    poison,
    strip,
    with_pac_field,
)
from pasan.runtime import SanitizerRuntime, padded_size

# -- references: the success and failure paths as one slow path each --


def ref_pac_auth(ptr, obj_id, key, cfg):
    msb = (ptr >> cfg.msb_bit) & 1
    expected = compute_pac(obj_id, msb, key, cfg)
    if msb == 0 and not (ptr >> RESERVED_BIT) & 1 and pac_field(ptr, cfg) == expected:
        return ptr & cfg.clear_mask
    return poison(ptr, cfg)


def ref_checked_access(rt, ptr, width, token=False):
    rt.stats.checks_full += 1
    cfg = rt.cfg
    raw = strip(ptr, cfg)
    found = rt.mem.id_at(raw)
    if ref_pac_auth(ptr, found, rt.key, cfg) != ptr & cfg.clear_mask:
        if (ptr >> cfg.msb_bit) & 1:
            raise ViolationError(ViolationKind.SHADOW_ACCESS, ptr, found,
                                 "pointer targets the metadata half")
        if (ptr >> RESERVED_BIT) & 1:
            raise ViolationError(ViolationKind.CRAFTED_PAC, ptr, found, "reserved bit 55 set")
        kind, narrative = rt._classify_failure(raw, found, pac_field(ptr, cfg))
        raise ViolationError(kind, ptr, found, narrative)
    if rt.bytewise:
        offsets = range(1, width)
    else:
        offsets = (width - 1,) if (raw & 3) + width > 4 else ()
    for off in offsets:
        other = rt.mem.id_at(raw + off)
        if other != found:
            raise ViolationError(ViolationKind.SPATIAL_OOB, ptr, other,
                                 f"{width}-byte access at 0x{raw:x} runs past the object")
    return (raw, found) if token else raw


def ref_fast_check(rt, ptr, token, base, width):
    rt.stats.checks_fast += 1
    raw = strip(ptr, rt.cfg)
    if lock_bits(ptr, rt.cfg) != lock_bits(base, rt.cfg):
        raise ViolationError(ViolationKind.SPATIAL_OOB, ptr, rt.mem.id_at(raw),
                             "derivation altered non-offset pointer bits")
    if rt.bytewise:
        offsets = range(width)
    else:
        offsets = (0, width - 1) if (raw & 3) + width > 4 else (0,)
    for off in offsets:
        found = rt.mem.id_at(raw + off)
        if found != token:
            raise ViolationError(ViolationKind.SPATIAL_OOB, ptr, found,
                                 f"shadow id changed under same-lock access at 0x{raw + off:x}")
    return raw


def ref_read(mem, addr, width):
    mem._check_access(addr, width)
    return int.from_bytes(mem._load_bytes(addr, width), "little")


def ref_write(mem, addr, width, value):
    mem._check_access(addr, width)
    mem._store_bytes(addr, (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little"))


def memory(mem):
    """A copy of mem's program bytes and shadow words, page by page."""
    return ({page: bytes(buf) for page, buf in mem.pages.items()},
            {page: bytes(words) for page, words in mem.shadow.items()})


def outcome(fn, *args):
    """The value fn returns, or the exception it raises with its fields."""
    try:
        return "value", fn(*args)
    except ViolationError as exc:
        r = exc.report
        return "violation", r.kind, r.pointer, r.found_id, r.narrative
    except PreconditionViolated as exc:
        return "precondition", str(exc)


# -- one runtime state, built twice: once for the code, once for the reference --

# Regions that abut on page boundaries: the last page of one region is
# followed by the first of the next, so a straddling access crosses regions.
ABUTTING = RegionMap(Region(0x10000, 0x2000), Region(0x12000, 0x3000), Region(0x15000, 0x2000))
SMALL = RegionMap(Region(GLOBALS_BASE, 1 << 13), Region(HEAP_BASE, 1 << 16),
                  Region(STACK_TOP - (1 << 14), 1 << 14))

CONFIGS = [
    (AddressConfig(33), SMALL, 0xFFFFFFFD),   # ids 0xFFFFFFFD, 0xFFFFFFFE, 0xFFFFFFFF, 1, ...
    (AddressConfig(47), ABUTTING, 7),
    (AddressConfig(47, p_override=3), SMALL, 1234),  # 1 in 8 crafted fields match
]


def build(cfg, regions, counter, seed):
    """A runtime with live, freed and reused heap objects (one ending at
    the heap's limit), stack and global objects, a retired stack object,
    and some data written; returns it with the signed pointers made."""
    rng = random.Random(seed)
    mem = MemSpace(cfg, regions)
    rt = SanitizerRuntime(mem, PacKey(rng.getrandbits(128)), counter)
    heap, stack, glob = regions.heap, regions.stack, regions.globals
    signed = [rt.protected_malloc(size) for size in (1, 6, 8, 13, 64)]
    for victim in signed[1:3]:
        rt.protected_free(victim)
    signed += [rt.protected_malloc(size) for size in (6, 8)]  # reuse: the freed pointers go stale
    # fill the heap up to a last object ending exactly at its limit
    rt.heap_cursor = heap.limit - PAGE_SIZE - 40
    signed.append(rt.protected_malloc(PAGE_SIZE))  # straddles a page boundary
    signed.append(rt.protected_malloc(heap.limit - rt.heap_cursor))
    for base, size in ((stack.limit - 24, 24), (stack.limit - 48, 16),
                       (glob.base, 12), (glob.limit - 8, 8)):
        signed.append(rt.register_object(base, size))
        if base == stack.limit - 48:
            rt.retire(base)
    for ptr in signed:
        raw = strip(ptr, cfg)
        mem._store_bytes(raw, bytes(rng.getrandbits(8) for _ in range(4)))
    return rt, signed


def candidate_pointers(cfg, regions, signed, rng):
    """Signed pointers at and around their objects' ends, with the MSB or
    bit 55 set, a crafted or poisoned field; raw addresses around page
    and region ends."""
    ptrs = []
    for ptr in signed:
        for off in (0, 1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 60, 63, 64, -1, -4, PAGE_SIZE - 4):
            moved = (ptr + off) & MASK64
            ptrs += [moved, moved | 1 << cfg.msb_bit, moved | 1 << RESERVED_BIT,
                     with_pac_field(moved, rng.getrandbits(cfg.effective_p), cfg)]
        ptrs.append(poison(ptr, cfg))
    for region in (regions.globals, regions.heap, regions.stack):
        for edge in (region.base, region.limit, region.base + PAGE_SIZE,
                     (region.base | (PAGE_SIZE - 1)) + 1):
            ptrs += [(edge + off) & MASK64 for off in range(-9, 3)]
    return ptrs


@pytest.mark.parametrize("cfg, regions, counter", CONFIGS)
def test_fast_paths_match_slow_path_references(cfg, regions, counter):
    rt, signed = build(cfg, regions, counter, seed=cfg.n)
    ref, ref_signed = build(cfg, regions, counter, seed=cfg.n)
    assert signed == ref_signed
    rng = random.Random(counter)
    ptrs = candidate_pointers(cfg, regions, signed, rng)
    bases = [(ptr, rt.mem.id_at(strip(ptr, cfg))) for ptr in signed]
    ids = sorted({rt.mem.id_at(strip(ptr, cfg)) for ptr in signed}) + [0, 0xFFFFFFFF]

    for ptr in ptrs:
        for obj_id in (rt.mem.id_at(strip(ptr, cfg)), rng.choice(ids), 1 << 32, -1):
            assert outcome(pac_auth, ptr, obj_id, rt.key, cfg) == \
                outcome(ref_pac_auth, ptr, obj_id, ref.key, cfg), (hex(ptr), obj_id)
        for bytewise in (False, True):
            rt.bytewise = ref.bytewise = bytewise
            width = rng.choice((1, 2, 4, 8))
            token = rng.random() < 0.5
            assert outcome(rt.checked_access, ptr, width, token) == \
                outcome(ref_checked_access, ref, ptr, width, token), (hex(ptr), width, bytewise)
            base, tok = rng.choice(bases)
            near = (base + (ptr & 0xFF)) & MASK64 if rng.random() < 0.5 else ptr
            assert outcome(rt.fast_check, near, tok, base, width) == \
                outcome(ref_fast_check, ref, near, tok, base, width), (hex(near), width, bytewise)
        for width in (1, 2, 4, 8):
            value = rng.getrandbits(70) - (1 << 69)
            assert outcome(rt.mem.write, ptr, width, value) == \
                outcome(ref_write, ref.mem, ptr, width, value), (hex(ptr), width)
            assert outcome(rt.mem.read, ptr, width) == \
                outcome(ref_read, ref.mem, ptr, width), (hex(ptr), width)

    assert fields(rt.stats) == fields(ref.stats)
    assert rt.key.macs == ref.key.macs
    assert memory(rt.mem) == memory(ref.mem)
    assert_pages_lie_in_regions(rt.mem)


# -- the calls each success path makes --

def python_calls(fn):
    """The names of the Python functions a call of fn enters, fn first."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return names


def test_success_paths_make_one_frame_per_traced_call():
    cfg = AddressConfig(47)
    rt, signed = build(cfg, RegionMap.default(), 5, seed=0)
    ptr = signed[0]
    raw = strip(ptr, cfg)
    token = rt.mem.id_at(raw)
    # loads and stores move their bytes in the generated table handler
    mem, load, store = rt.mem, _HANDLERS["load"], _HANDLERS["store"]
    interp = SimpleNamespace(pages=mem.pages, read=mem.read, write=mem.write)
    load4 = Inst("load", "%v", width=4, args=("%p",))
    store4, store8 = (Inst("store", width=w, args=("%p", "%v")) for w in (4, 8))
    assert python_calls(lambda: store(interp, None, {"%p": rt.checked_access(ptr, 4), "%v": 7},
                                      store4)) == ["<lambda>", "checked_access", "store"]
    assert python_calls(lambda: load(interp, None, {"%p": raw}, load4)) == ["<lambda>", "load"]
    assert python_calls(lambda: store(interp, None, {"%p": raw, "%v": 1}, store8)) == \
        ["<lambda>", "store"]
    assert python_calls(lambda: rt.fast_check(ptr, token, ptr, 4)) == \
        ["<lambda>", "fast_check"]


# -- allocation, free and the memset/memcpy wrappers --


def ref_pac_sign(addr, obj_id, key, cfg):
    if addr >> cfg.msb_bit:
        raise PreconditionViolated(
            f"cannot sign 0x{addr:x}: signature field, bit 55, and address MSB must be clear"
        )
    return with_pac_field(addr, _mac(key, modifier_for(obj_id, 0, cfg), True) & cfg.pac_mask, cfg)


def ref_store_words(mem, base, words):
    """Store words in mem's shadow word table one at a time, the first
    at base's metadata address."""
    for k, word in enumerate(words):
        shadow = shadow_of(base + 4 * k, mem.cfg)
        page = mem.shadow.setdefault(shadow // PAGE_SIZE, array("I", bytes(PAGE_SIZE)))
        page[shadow % PAGE_SIZE // 4] = word


def ref_shadow_fill(mem, base, size, obj_id):
    mem._check_shadow_range(base, size)
    ref_store_words(mem, base, array("I", [obj_id]) * (size // 4))


def ref_shadow_clear(mem, base, size):
    mem._check_shadow_range(base, size)
    ref_store_words(mem, base, [0] * (size // 4))


def ref_builtin(mem, name, args, span):
    """memcpy/memset over a range vetter, moving bytes with no fast path."""
    dest, arg, length = args
    if length > 0:
        raw_dest = span(dest, length)
        data = mem._load_bytes(span(arg, length), length) if name == "memcpy" \
            else bytes([arg & 0xFF]) * length
        mem._store_bytes(raw_dest, data)
    return dest


def ref_range_check(rt, ptr, length):
    for off in range(length) if rt.bytewise else (0, length - 1):
        rt.checked_access((ptr + off) & MASK64, 1)
    return ptr & rt.cfg.strip_mask


def ref_wrapper_call(rt, name, args):
    return ref_builtin(rt.mem, name, args, lambda ptr, length: ref_range_check(rt, ptr, length))


def outcome_or_error(fn, *args):
    """outcome, with an id too wide to store."""
    try:
        return outcome(fn, *args)
    except OverflowError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("n", [33, 47, 52])
def test_shadow_fill_and_clear_match_slow_path_references(n):
    cfg = AddressConfig(n)
    mem, ref = MemSpace(cfg), MemSpace(cfg)
    top = 1 << cfg.msb_bit  # the first metadata-half address
    page = 0x1000_0000
    ranges = [
        (page, 4), (page + 8, 16), (page + PAGE_SIZE - 4, 4),   # in one page, up to its end
        (page, PAGE_SIZE), (page + PAGE_SIZE - 8, 16),           # a whole page; a straddle
        (page + 12, 3 * PAGE_SIZE), (page + 4, PAGE_SIZE),       # across pages
        (page + 1, 4), (page + 2, 8), (page, 6), (page, 2),      # unaligned base or size
        (page, 0), (page, -4), (-4, 8), (-8, 4), (-PAGE_SIZE, 4),  # empty or negative
        (top, 4), (top + 8, 8), (top - 4, 8), (top - 8, 16),     # the metadata half
        (top - 4, 4), (top - PAGE_SIZE, PAGE_SIZE), (top - 64, 64),  # the last page below it
        (top - PAGE_SIZE - 8, 16),
    ]
    rng = random.Random(n)
    for base, size in ranges:
        for obj_id in (rng.getrandbits(32), 0xFFFFFFFF, 0, 1 << 32):
            assert outcome_or_error(mem.shadow_fill, base, size, obj_id) == \
                outcome_or_error(ref_shadow_fill, ref, base, size, obj_id), (hex(base), size)
            assert memory(mem) == memory(ref), (hex(base), size, obj_id)
        # clear a range overlapping what was filled
        for b, s in ((base, size), (base + 4, size - 4), (base - 4, size + 8)):
            assert outcome_or_error(mem.shadow_clear, b, s) == \
                outcome_or_error(ref_shadow_clear, ref, b, s), (hex(b), s)
            assert memory(mem) == memory(ref), (hex(b), s)
            mem.shadow_fill(page, 8, 1)
            ref_shadow_fill(ref, page, 8, 1)


@pytest.mark.parametrize("cfg", [AddressConfig(33), AddressConfig(47), AddressConfig(52),
                                 AddressConfig(47, p_override=3)], ids=config_id)
def test_pac_sign_matches_reference(cfg):
    key, ref_key = PacKey(0x0123456789ABCDEF << 32 | 77), PacKey(0x0123456789ABCDEF << 32 | 77)
    top = 1 << cfg.msb_bit
    addrs = [0, 0x1000, 0x1000_0000 + 12, top - 1, top, top | 8, 1 << RESERVED_BIT,
             1 << RESERVED_BIT | 0x1000, 1 << 63, MASK64, -1]
    rng = random.Random(cfg.n)
    ids = [0, 0xFFFFFFFF, 1 << 32, -1, 5, 6, 5, 0xFFFFFFFE]  # repeats: warm-table hits
    ids += [rng.getrandbits(32) for _ in range(40)]
    for obj_id in ids:
        for addr in addrs:
            assert outcome(pac_sign, addr, obj_id, key, cfg) == \
                outcome(ref_pac_sign, addr, obj_id, ref_key, cfg), (hex(addr), obj_id)
            assert key.macs == ref_key.macs
        # an already signed address is refused
        signed = pac_sign(0x2000, 9, key, cfg)
        assert outcome(pac_sign, signed, obj_id, key, cfg) == \
            outcome(ref_pac_sign, signed, obj_id, ref_key, cfg)
        ref_pac_sign(0x2000, 9, ref_key, cfg)
    assert key.macs == ref_key.macs and len(key.macs) > 40


def _recording(rt, log):
    """Route rt's checked_access calls through a log of their arguments."""
    inner = rt.checked_access

    def checked_access(ptr, width=1, token=False):
        log.append((ptr, width))
        return inner(ptr, width, token)

    rt.checked_access = checked_access


@pytest.mark.parametrize("cfg, regions, counter", CONFIGS)
def test_memset_memcpy_wrappers_match_reference(cfg, regions, counter):
    rt, signed = build(cfg, regions, counter, seed=cfg.n)
    ref, _ = build(cfg, regions, counter, seed=cfg.n)
    log, ref_log = [], []
    _recording(rt, log)
    _recording(ref, ref_log)
    rng = random.Random(counter)
    live = [ptr for ptr in signed if rt.mem.id_at(strip(ptr, cfg))]
    stale = signed[1:3]  # freed, and their blocks reused
    straddler = signed[7]  # a PAGE_SIZE object across a page boundary
    cases = []
    for dest in live + stale:
        size = next(n for n in range(1, 2 * PAGE_SIZE + 8)
                    if rt.mem.id_at(strip(dest, cfg) + n) != rt.mem.id_at(strip(dest, cfg)))
        for length in (0, 1, 2, 3, size - 1, size, size + 1, -1):
            cases.append(("memset", [dest, rng.getrandbits(32), length]))
            src = rng.choice(live + stale)
            cases.append(("memcpy", [dest, src, length]))
        cases.append(("memcpy", [dest, (dest + 2) & MASK64, 4]))  # overlapping
        cases.append(("memcpy", [straddler, dest, 8]))  # a source shorter than 8 may fail
    cases += [("memset", [(straddler + PAGE_SIZE - 100) & MASK64, 7, 100]),
              ("memset", [straddler | 1 << cfg.msb_bit, 1, 4]),
              ("memcpy", [signed[0], straddler | 1 << RESERVED_BIT, 4]),
              ("memset", [poison(signed[0], cfg), 0, 4])]
    for bytewise in (False, True):
        rt.bytewise = ref.bytewise = bytewise
        for name, args in cases:
            assert outcome(rt.wrapper_call, name, list(args)) == \
                outcome(ref_wrapper_call, ref, name, list(args)), (name, args, bytewise)
            assert log == ref_log, (name, args, bytewise)
    assert fields(rt.stats) == fields(ref.stats)
    assert rt.key.macs == ref.key.macs
    assert memory(rt.mem) == memory(ref.mem)

    # the simulated raw externals move their bytes through the same mover
    mem, ref_mem = rt.mem, ref.mem
    interp = SimpleNamespace(simulated={"memcpy", "memset"}, mem=mem)
    raws = [strip(ptr, cfg) for ptr in signed]
    raws += [regions.heap.limit - 8, regions.stack.limit - 3, regions.globals.base - 4, 0]
    for dest in raws:
        for length in (0, 1, 9, PAGE_SIZE + 1, -3):
            src = rng.choice(raws)
            for name, arg in (("memset", rng.getrandbits(9)), ("memcpy", src)):
                assert outcome(Interpreter._simulate_external, interp, name,
                               [dest, arg, length]) == \
                    outcome(ref_builtin, ref_mem, name, [dest, arg, length],
                            ref_mem.trap_span), (name, hex(dest), length)
    assert memory(mem) == memory(ref_mem)
    assert_pages_lie_in_regions(mem)


def test_allocation_free_and_wrapper_success_paths_stay_flat():
    cfg = AddressConfig(47)
    rt = SanitizerRuntime(MemSpace(cfg), PacKey(99), 5)
    ptr = rt.protected_malloc(64)  # its shadow page exists from here on
    rt.wrapper_call("memset", [ptr, 0, 64])  # and so does its data page
    # a bump and a reuse each carve and register, and call nothing else
    malloc = ["<lambda>", "protected_malloc", "_allocate", "register_object"]
    _mac(rt.key, rt.next_id, True)  # the next id signs from a warm table
    after = rt.protected_malloc(24)
    _mac(rt.key, rt.next_id, True)
    assert python_calls(lambda: rt.protected_malloc(24)) == malloc  # a bump
    assert python_calls(lambda: rt.wrapper_call("memset", [ptr, 0x41, 64])) == \
        ["<lambda>", "wrapper_call", "checked_access", "checked_access", "move"]
    free = ["<lambda>", "protected_free", "retire", "_release"]
    assert python_calls(lambda: rt.protected_free(after)) == free
    # ptr is the heap's first block: the word below it lies in the page
    # below, which protected_free reads too
    assert python_calls(lambda: rt.protected_free(ptr)) == free
    _mac(rt.key, rt.next_id, True)
    assert python_calls(lambda: rt.protected_malloc(61)) == malloc  # reuses ptr's block


# -- the signature table against pac_auth --


def ref_protected_free(rt, ptr):
    cfg = rt.cfg
    raw = strip(ptr, cfg)
    found = rt.mem.id_at(raw)
    if ref_pac_auth(ptr, found, rt.key, cfg) != ptr & cfg.clear_mask:
        rt._refuse_unsignable(ptr, found)
        if found == 0:
            if raw in rt.alloc and raw in rt.free_lists.get(rt.alloc[raw], {}):
                raise ViolationError(ViolationKind.DOUBLE_FREE, ptr, found,
                                     f"block at 0x{raw:x} already freed")
            raise ViolationError(ViolationKind.USE_AFTER_FREE, ptr, found,
                                 "free through a stale pointer")
        rt._reject(ptr, raw, found)
    if rt.mem.id_at(raw - 4) == found:
        raise ViolationError(ViolationKind.FREE_INSIDE_BUFFER, ptr, found,
                             f"free target 0x{raw:x} is not the start of the object")
    if raw not in rt.alloc or raw in rt.free_lists.get(rt.alloc[raw], {}):
        raise ViolationError(ViolationKind.SPATIAL_OOB, ptr, found,
                             "free target is not a live heap allocation")
    size = rt.alloc[raw]
    assert rt.live[raw] == (size, found)
    ref_retire(rt, raw)
    rt.free_lists.setdefault(size, {})[raw] = None
    rt.stats.frees += 1


def ref_register_object(rt, base, padded):
    if base in rt.live:
        ref_retire(rt, base)
    obj_id = rt.next_id % (1 << 32) or 1
    rt.next_id = obj_id + 1
    rt.mem.shadow_fill(base, padded, obj_id)
    rt.live[base] = (padded, obj_id)
    signed = pac_sign(base, obj_id, rt.key, rt.cfg)
    rt.sigs[obj_id] = signed ^ base
    return signed


def ref_retire(rt, base):
    padded, obj_id = rt.live.pop(base)
    rt.mem.shadow_clear(base, padded)
    rt.sigs.pop(obj_id, None)
    rt.retired.append((base, padded, obj_id))


def ref_protected_malloc(rt, size):
    padded = padded_size(size)
    blocks = rt.free_lists.get(padded)
    if blocks:
        base = list(blocks)[-1]  # the newest freed
        del blocks[base]
    else:
        base = rt.heap_cursor
        if base + padded > rt.heap_limit:
            raise LimitExceeded("simulated heap exhausted")
        rt.heap_cursor = base + padded
    rt.alloc[base] = padded
    rt.stats.allocs += 1
    return ref_register_object(rt, base, padded)


@pytest.mark.parametrize("cfg", [AddressConfig(33), AddressConfig(47), AddressConfig(52),
                                 AddressConfig(47, p_override=3)], ids=config_id)
@pytest.mark.parametrize("retire", ["older", "newer"])
def test_signature_table_matches_pac_auth_reference(cfg, retire, monkeypatch):
    """checked_access and protected_free accept a pointer on a table hit
    and otherwise call pac_auth: against a reference that always calls
    it, every outcome, counter, MAC table and page must agree, and every
    failed authentication must still reach pac_auth."""
    rt, signed = build(cfg, SMALL, 1, seed=cfg.n)  # signed[0] gets id 1
    ref, _ = build(cfg, SMALL, 1, seed=cfg.n)
    # The id counter wraps past 0xFFFFFFFF back to 1, which is live: two
    # live objects share an id, then one of them is retired.
    for side in (rt, ref):
        side.next_id = 0xFFFFFFFF
        side.heap_cursor = SMALL.heap.base + 0x4000
        pair = [side.protected_malloc(8) for _ in range(2)]
    signed += pair
    assert rt.mem.id_at(strip(pair[1], cfg)) == rt.mem.id_at(strip(signed[0], cfg)) == 1
    victim = signed[0] if retire == "older" else pair[1]
    for side in (rt, ref):
        side.protected_free(victim)

    calls, ref_calls = [], []  # per pac_auth call: whether it authenticated
    reference = ref_pac_auth

    def traced_pac_auth(ptr, obj_id, key, cfg_):
        result = pac_auth(ptr, obj_id, key, cfg_)
        ok = result == ptr & cfg_.clear_mask
        assert not ok or obj_id not in rt.sigs  # a table entry would have hit
        calls.append(ok)
        return result

    def traced_ref_pac_auth(ptr, obj_id, key, cfg_):
        result = reference(ptr, obj_id, key, cfg_)
        ref_calls.append(result == ptr & cfg_.clear_mask)
        return result

    monkeypatch.setattr(runtime_module, "pac_auth", traced_pac_auth)
    monkeypatch.setattr(sys.modules[__name__], "ref_pac_auth", traced_ref_pac_auth)

    rng = random.Random(cfg.n)
    ptrs = candidate_pointers(cfg, SMALL, signed, rng)
    for ptr in ptrs:
        for bytewise in (False, True):
            rt.bytewise = ref.bytewise = bytewise
            width = rng.choice((1, 2, 4, 8))
            token = rng.random() < 0.5
            assert outcome(rt.checked_access, ptr, width, token) == \
                outcome(ref_checked_access, ref, ptr, width, token), (hex(ptr), width, bytewise)
        if rng.random() < 0.1:  # frees change what later pointers find
            assert outcome(rt.protected_free, ptr) == \
                outcome(ref_protected_free, ref, ptr), hex(ptr)
    # every failed authentication reached pac_auth; the only successes it
    # saw are the wrapped id's survivor, whose entry went with the other
    assert calls.count(False) == ref_calls.count(False) > 0
    assert any(calls)
    assert len(calls) < len(ref_calls)

    # churn: with the shared id's survivor freed and fresh ids past every
    # one made so far, no two live extents share an id, so the table
    # holds one entry per live extent, each as pac_sign placed it
    survivor = pair[1] if retire == "older" else signed[0]
    assert outcome(rt.protected_free, survivor) == outcome(ref_protected_free, ref, survivor)
    for side in (rt, ref):
        side.next_id = 0x100
    live = [ptr for ptr in signed if rt.mem.id_at(strip(ptr, cfg))]
    for _ in range(300):
        if live and rng.random() < 0.5:
            ptr = live.pop(rng.randrange(len(live)))
            assert outcome(rt.protected_free, ptr) == outcome(ref_protected_free, ref, ptr)
        else:
            size = rng.choice((4, 12, 24, 60))
            ptr = rt.protected_malloc(size)
            assert ref.protected_malloc(size) == ptr
            live.append(ptr)
        assert len(rt.sigs) == len(rt.live)
    assert rt.sigs == {obj_id: pac_sign(base, obj_id, rt.key, cfg) ^ base
                       for base, (_, obj_id) in rt.live.items()}
    assert fields(rt.stats) == fields(ref.stats)
    assert rt.key.macs == ref.key.macs
    assert memory(rt.mem) == memory(ref.mem)
    assert rt.retired == ref.retired


@pytest.mark.parametrize("opts", ["none", "all"])
def test_corpus_runs_authenticate_through_the_signature_table(corpus_dir, opts, monkeypatch):
    """pac_auth is a plain definition because no successful check or free
    reaches it: a completed corpus run never calls it, and a violating
    run calls it at most once, for the access or free it reports."""
    counts = []

    def counting_pac_auth(*args):
        counts[-1] += 1
        return pac_auth(*args)

    monkeypatch.setattr(runtime_module, "pac_auth", counting_pac_auth)
    violations = 0
    for path in sorted(corpus_dir.glob("*.ir")):
        counts.append(0)
        result = run(_build(path.read_text(), opts), AddressConfig(47), seed=1)
        assert counts[-1] <= (0 if result.completed else 1), (path.name, result.verdict)
        violations += not result.completed
    assert violations > 0 and sum(counts) > 0


# -- allocation, registration, checks and frees in seeded sequences --


def full_outcome(fn, *args):
    """outcome_or_error, with an exhausted heap."""
    try:
        return outcome_or_error(fn, *args)
    except LimitExceeded as exc:
        return "limit", str(exc)


def runtime_state(rt):
    return fields((memory(rt.mem), rt.sigs, rt.live, rt.retired, rt.alloc, rt.free_lists,
                   rt.stats, rt.heap_cursor, rt.next_id, rt.key.macs))


# The heap, globals and stack of SMALL start page-aligned, so the first
# heap block's guard word and each region's first object's word below
# lie in another page, which may not exist yet.
@pytest.mark.parametrize("cfg, counter", [(AddressConfig(33), 0xFFFFFFF0),
                                          (AddressConfig(47), 7),
                                          (AddressConfig(47, p_override=3), 0xFFFFFFFF)],
                         ids=["n33-wrap", "n47", "p3-wrap"])
@pytest.mark.parametrize("seed", range(3))
def test_runtime_sequences_match_slow_path_references(cfg, counter, seed):
    """protected_malloc, protected_free, checked_access, fast_check,
    register_object and retire read and write shadow words in
    their own frame.  Seeded sequences of them, run against references
    built from id_at, shadow_fill, shadow_clear and pac_sign, must give
    the same value, or the same exception with the same report, at every
    step, and leave the same shadow words, tables, histories and Stats.
    The counter wraps through 0 in two configurations; sizes up to
    two pages make slices that straddle pages and pages not yet made,
    and freed sizes recur, so blocks are reused."""
    rng = random.Random(seed * 1000 + cfg.n)
    key = rng.getrandbits(128)
    rt = SanitizerRuntime(MemSpace(cfg, SMALL), PacKey(key), counter)
    ref = SanitizerRuntime(MemSpace(cfg, SMALL), PacKey(key), counter)
    heap, stack, glob = SMALL.heap, SMALL.stack, SMALL.globals
    sizes = (0, 1, 4, 13, 24, 24, 60, 60, 100, 1000, PAGE_SIZE - 4, PAGE_SIZE, 5000)
    seen = set()     # the cases the sequence reached
    slow_fills = []
    fill = rt.mem.shadow_fill
    rt.mem.shadow_fill = lambda *args: slow_fills.append(args) or fill(*args)
    ptrs = []        # every pointer made, stale ones too
    heap_live = []   # the live heap pointers among them
    extents = []     # (base, padded, id) of registered stack/global objects
    slots = [stack.base, stack.limit - 4, stack.limit - PAGE_SIZE - 8, stack.base + 4092,
             glob.base, glob.base + PAGE_SIZE - 8, glob.limit - 12,
             glob.base | 1 << cfg.msb_bit]  # the globals' shadow: refused
    for step in range(600):
        rt.bytewise = ref.bytewise = rng.random() < 0.2
        op = rng.choice(("malloc", "malloc", "free", "check", "check", "fast", "register",
                         "retire"))
        if op == "malloc" or not ptrs:
            size = rng.choice(sizes)
            reuse = bool(rt.free_lists.get(padded_size(size)))
            got = full_outcome(rt.protected_malloc, size)
            assert got == full_outcome(ref_protected_malloc, ref, size), (step, size)
            if got[0] == "value":
                ptrs.append(got[1])
                heap_live.append(got[1])
                seen.add("reuse" if reuse else "bump")
                raw = strip(got[1], cfg)
                seen.add(("offset 0" if raw % PAGE_SIZE == 0 else "mid-page")
                         if raw % PAGE_SIZE + padded_size(size) <= PAGE_SIZE else "straddle")
        elif op == "free":
            if heap_live and rng.random() < 0.7:
                ptr = heap_live.pop(rng.randrange(len(heap_live)))
            else:
                ptr = rng.choice(ptrs)
                ptr = rng.choice((ptr, (ptr + rng.choice((4, 8, -4))) & MASK64,
                                  with_pac_field(ptr, rng.getrandbits(cfg.effective_p), cfg)))
            got = full_outcome(rt.protected_free, ptr)
            assert got == full_outcome(ref_protected_free, ref, ptr), (step, hex(ptr))
            if got[0] == "value" and strip(ptr, cfg) == heap.base:
                seen.add("first block freed")
        elif op in ("check", "fast"):
            base = rng.choice(ptrs)
            ptr = (base + rng.choice((0, 1, 3, 4, 8, 12, 20, 59, 60, 96, 4092, 4096, -4))) \
                & MASK64
            width = rng.choice((1, 2, 4, 8))
            if op == "check":
                token = rng.random() < 0.5
                assert full_outcome(rt.checked_access, ptr, width, token) == \
                    full_outcome(ref_checked_access, ref, ptr, width, token), (step, hex(ptr))
            else:
                tok = ref.mem.id_at(strip(base, cfg)) if rng.random() < 0.9 \
                    else rng.getrandbits(32)
                assert full_outcome(rt.fast_check, ptr, tok, base, width) == \
                    full_outcome(ref_fast_check, ref, ptr, tok, base, width), (step, hex(ptr))
        elif op == "register":
            base = rng.choice(slots) + rng.choice((0, 0, 0, 2))
            padded = rng.choice((4, 8, 12, 16, 64, PAGE_SIZE, 6, 0))
            over = base in rt.live
            got = full_outcome(rt.register_object, base, padded)
            assert got == full_outcome(ref_register_object, ref, base, padded), \
                (step, hex(base), padded)
            if got[0] == "value":
                extents.append((base, padded, rt.mem.id_at(base)))
                ptrs.append(got[1])
                seen.add("registered over a live base" if over else "registered")
        elif extents:
            extent = extents.pop(rng.randrange(len(extents)))
            base, padded, obj_id = extent
            if rt.live.get(base) == (padded, obj_id):  # not retired by a registration since
                assert full_outcome(rt.retire, base) == full_outcome(ref_retire, ref, base), step
                assert rt.retired[-1] == extent
                seen.add("retired")
        if step % 50 == 0:
            assert runtime_state(rt) == runtime_state(ref), step
    assert runtime_state(rt) == runtime_state(ref)
    assert seen >= {"bump", "reuse", "offset 0", "mid-page", "straddle", "first block freed",
                    "registered", "registered over a live base", "retired"}
    assert slow_fills and rt.stats.frees > 20
    assert rt.next_id < counter or counter < 0xFFFFFF00  # wrapped, where it could


@pytest.mark.parametrize("n", [33, 47])
def test_free_reads_the_word_below_across_a_page_start(n):
    """protected_free reads the word below raw in raw's own shadow page
    unless raw lies in a page's first four bytes.  Frees 0 to 4 bytes
    past a page start, with the page below absent (the heap's first
    page), present under another object, and present under the same
    object (one that straddles the page start), must match the
    reference and leave the same state.  The objects fill their last
    page word, so reading raw's own page for 1 to 3 bytes past its start
    would find a different word."""
    cfg = AddressConfig(n)
    key = random.Random(n).getrandbits(128)
    rt, ref = (SanitizerRuntime(MemSpace(cfg, SMALL), PacKey(key), 0x100) for _ in range(2))
    heap = SMALL.heap.base
    targets = []
    for size in (PAGE_SIZE, PAGE_SIZE, 8, PAGE_SIZE):
        ptr = rt.protected_malloc(size)
        assert ref_protected_malloc(ref, size) == ptr
        targets.append(ptr)
    a, b, _, d = targets
    assert [strip(p, cfg) for p in (a, b, d)] == [heap, heap + PAGE_SIZE, heap + 2 * PAGE_SIZE + 8]
    page_starts = [a, b, d + PAGE_SIZE - 8]  # below: absent, another object, d itself
    ends = set()
    for off in (4, 3, 2, 1, 0):
        for ptr in page_starts:
            got = outcome(rt.protected_free, ptr + off)
            assert got == outcome(ref_protected_free, ref, ptr + off), (off, hex(ptr))
            assert runtime_state(rt) == runtime_state(ref), (off, hex(ptr))
            ends.add((off, got[1]))
    assert ends == {(4, ViolationKind.FREE_INSIDE_BUFFER), (0, ViolationKind.FREE_INSIDE_BUFFER),
                    (0, None), *((off, kind) for off in (1, 2, 3) for kind in
                                 (ViolationKind.SPATIAL_OOB, ViolationKind.FREE_INSIDE_BUFFER))}
    assert {heap, heap + PAGE_SIZE} <= set(rt.free_lists[PAGE_SIZE])


# -- the page table against the span walk --


def _spans(regions):
    return [(r.base, r.limit) for r in (regions.globals, regions.heap, regions.stack)]


def ref_span_read(mem, addr, width):
    """read by the span walk: an in-page access inside a region reads
    its page directly; any other goes through _check_access."""
    off = addr % PAGE_SIZE
    if off + width <= PAGE_SIZE:
        for base, limit in _spans(mem.regions):
            if base <= addr and addr + width <= limit:
                page = mem.pages.get(addr // PAGE_SIZE, bytes(PAGE_SIZE))
                return int.from_bytes(page[off : off + width], "little")
    return ref_read(mem, addr, width)


def ref_span_write(mem, addr, width, value):
    off = addr % PAGE_SIZE
    if off + width <= PAGE_SIZE:
        for base, limit in _spans(mem.regions):
            if base <= addr and addr + width <= limit:
                page = mem.pages.setdefault(addr // PAGE_SIZE, bytearray(PAGE_SIZE))
                page[off : off + width] = (value % (1 << 8 * width)).to_bytes(width, "little")
                return
    ref_write(mem, addr, width, value)


def handler_read(mem, addr, width):
    """A load of mem through the interpreter's generated table handler."""
    regs = {"%p": addr}
    _HANDLERS["load"](SimpleNamespace(pages=mem.pages, read=mem.read), None, regs,
                      Inst("load", "%v", width=width, args=("%p",)))
    return regs["%v"]


def handler_write(mem, addr, width, value):
    """A store to mem through the interpreter's generated table handler."""
    _HANDLERS["store"](SimpleNamespace(pages=mem.pages, write=mem.write), None,
                       {"%p": addr, "%v": value}, Inst("store", width=width, args=("%p", "%v")))


def assert_pages_lie_in_regions(mem):
    """Each page in pages lies wholly inside one region, below the
    address MSB: so an in-page access to it cannot fault."""
    for page in mem.pages:
        assert page * PAGE_SIZE < 1 << mem.cfg.msb_bit, hex(page)
        assert any(base <= page * PAGE_SIZE and (page + 1) * PAGE_SIZE <= limit
                   for base, limit in _spans(mem.regions)), hex(page)


@pytest.mark.parametrize("regions", [RegionMap.default(), ABUTTING],
                         ids=["default", "abutting"])
@pytest.mark.parametrize("n", [33, 47])
def test_mapped_page_table_matches_the_span_walk(regions, n):
    # mem moves bytes through read and write, gen through the load and
    # store table handlers, which hold the in-page fast path
    cfg = AddressConfig(n)
    mem, gen, ref = (MemSpace(cfg, regions) for _ in range(3))
    addrs = [0, 0x8000, 0x2000_0000]  # unmapped
    for base, limit in _spans(regions):
        edges = {base, limit, (base | PAGE_SIZE - 1) + 1, (limit - 1) & ~(PAGE_SIZE - 1)}
        addrs += [edge + off for edge in edges for off in range(-9, 4)]
    addrs += [addr | bit for addr in addrs[3::5]
              for bit in (1 << cfg.msb_bit, 1 << cfg.n, 1 << RESERVED_BIT)]
    rng = random.Random(n)
    ops = [(op, addr, width) for addr in addrs for width in (1, 4, 8) for op in ("read", "write")]
    for _ in range(2):  # shuffled: pages are read both before and after they exist
        rng.shuffle(ops)
        for op, addr, width in ops:
            if op == "read":
                want = outcome(ref_span_read, ref, addr, width)
                assert outcome(mem.read, addr, width) == want, (hex(addr), width)
                assert outcome(handler_read, gen, addr, width) == want, (hex(addr), width)
            else:
                value = rng.getrandbits(70)
                want = outcome(ref_span_write, ref, addr, width, value)
                assert outcome(mem.write, addr, width, value) == want, (hex(addr), width)
                assert outcome(handler_write, gen, addr, width, value) == want, \
                    (hex(addr), width)
        # shadow words, written for every region, never enter the table
        for base, _ in _spans(regions):
            mem.shadow_fill(base & ~3, 8, 5)
            gen.shadow_fill(base & ~3, 8, 5)
            ref_shadow_fill(ref, base & ~3, 8, 5)
        assert memory(mem) == memory(ref) == memory(gen)
        assert_pages_lie_in_regions(mem)
        assert_pages_lie_in_regions(gen)
    assert mem.pages and gen.pages
