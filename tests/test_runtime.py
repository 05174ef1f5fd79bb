"""Protected allocation, the checks, wrappers, and violation taxonomy."""
import random

import pytest

from helpers import is_poisoned, lock_bits
from pasan.errors import LimitExceeded, ViolationError, ViolationKind
from pasan.memspace import MemSpace, RegionMap
from pasan.pacore import (
    AddressConfig,
    PacKey,
    pac_field,
    strip,
    with_pac_field,
)
from pasan.runtime import SanitizerRuntime, padded_size

CFG = AddressConfig(47)


def make_rt(seed=1, bytewise=False):
    rng = random.Random(seed)
    mem = MemSpace(CFG, RegionMap.default(heap_size=1 << 20, stack_size=1 << 16))
    return SanitizerRuntime(mem, PacKey.generate(rng), rng.getrandbits(32), bytewise=bytewise)


def kind_of(exc_info) -> ViolationKind:
    return exc_info.value.report.kind


def test_padded_size():
    assert padded_size(10) == 12
    assert padded_size(4) == 4
    assert padded_size(0) == 4
    assert padded_size(1) == 4
    with pytest.raises(ValueError):
        padded_size(-1)


def test_malloc_pads_and_shadows():
    rt = make_rt()
    signed = rt.protected_malloc(10)
    base = strip(signed, CFG)
    obj_id = rt.mem.id_at(base)
    assert obj_id != 0
    assert rt.mem.id_at(base + 11) == obj_id
    assert rt.mem.id_at(base + 12) == 0


def test_zero_size_malloc_is_checkable():
    rt = make_rt()
    signed = rt.protected_malloc(0)
    assert rt.checked_access(signed, 1) == strip(signed, CFG)
    assert rt.alloc[strip(signed, CFG)] == 4


def test_consecutive_ids_increment():
    rt = make_rt()
    a = rt.mem.id_at(strip(rt.protected_malloc(4), CFG))
    b = rt.mem.id_at(strip(rt.protected_malloc(4), CFG))
    assert b == (a % 0xFFFFFFFF) + 1 or (a == 0xFFFFFFFF and b == 1)


def test_id_generator_skips_zero():
    rt = make_rt()
    rt.next_id = 0
    assert rt.mem.id_at(strip(rt.protected_malloc(4), CFG)) == 1
    rt.next_id = 0xFFFFFFFF
    assert rt.mem.id_at(strip(rt.protected_malloc(4), CFG)) == 0xFFFFFFFF
    assert rt.mem.id_at(strip(rt.protected_malloc(4), CFG)) == 1


def test_checked_access_in_bounds_offset():
    rt = make_rt()
    signed = rt.protected_malloc(12)
    derived = signed + 4
    assert rt.checked_access(derived, 4) == strip(signed, CFG) + 4


def test_checked_access_underflow_into_neighbor():
    rt = make_rt()
    first = rt.protected_malloc(12)
    second = rt.protected_malloc(12)
    with pytest.raises(ViolationError) as exc:
        rt.checked_access(second - 4, 4)
    assert kind_of(exc) is ViolationKind.SPATIAL_OOB


def test_checked_access_after_free_reuse():
    rt = make_rt()
    stale = rt.protected_malloc(12)
    rt.protected_free(stale)
    fresh = rt.protected_malloc(12)
    assert strip(fresh, CFG) == strip(stale, CFG)  # eager exact-size reuse
    with pytest.raises(ViolationError) as exc:
        rt.checked_access(stale, 4)
    assert kind_of(exc) is ViolationKind.USE_AFTER_FREE
    assert rt.checked_access(fresh, 4) == strip(fresh, CFG)


def test_checked_access_width_straddles_object():
    rt = make_rt()
    a = rt.protected_malloc(12)
    b = rt.protected_malloc(12)
    with pytest.raises(ViolationError) as exc:
        rt.checked_access(a + 8, 8)  # bytes 8..15 cross into the neighbor
    assert kind_of(exc) is ViolationKind.SPATIAL_OOB
    assert rt.checked_access(a + 4, 8) == strip(a, CFG) + 4


def test_checked_access_crafted_field():
    rt = make_rt()
    signed = rt.protected_malloc(12)
    garbled = with_pac_field(signed, pac_field(signed, CFG) ^ 1, CFG)
    with pytest.raises(ViolationError) as exc:
        rt.checked_access(garbled, 4)
    assert kind_of(exc) is ViolationKind.CRAFTED_PAC


def test_checked_access_shadow_half():
    rt = make_rt()
    signed = rt.protected_malloc(12)
    with pytest.raises(ViolationError) as exc:
        rt.checked_access(signed | 1 << 46, 4)
    assert kind_of(exc) is ViolationKind.SHADOW_ACCESS


def test_free_happy_path_clears_extent():
    rt = make_rt()
    signed = rt.protected_malloc(12)
    base = strip(signed, CFG)
    rt.protected_free(signed)
    assert all(rt.mem.id_at(base + off) == 0 for off in (0, 4, 8))


def test_free_first_object_passes_begin_check():
    rt = make_rt()
    rt.protected_free(rt.protected_malloc(4))  # guard word below heap base


def test_free_inside_buffer():
    rt = make_rt()
    signed = rt.protected_malloc(12)
    with pytest.raises(ViolationError) as exc:
        rt.protected_free(signed + 4)
    assert kind_of(exc) is ViolationKind.FREE_INSIDE_BUFFER


@pytest.mark.parametrize("offset", [4096, 4098])
def test_free_inside_buffer_at_a_page_start(offset):
    # the heap base is page-aligned, so the object's second page starts
    # at 4096 and the shadow word below it lies in the page below
    rt = make_rt()
    signed = rt.protected_malloc(3 * 4096)
    with pytest.raises(ViolationError) as exc:
        rt.protected_free(signed + offset)
    assert kind_of(exc) is ViolationKind.FREE_INSIDE_BUFFER


def test_double_free():
    rt = make_rt()
    signed = rt.protected_malloc(12)
    rt.protected_free(signed)
    with pytest.raises(ViolationError) as exc:
        rt.protected_free(signed)
    assert kind_of(exc) is ViolationKind.DOUBLE_FREE


def test_free_neighboring_base_is_legal():
    rt = make_rt()
    a = rt.protected_malloc(12)
    b = rt.protected_malloc(12)
    rt.protected_free(b)  # begin check sees a's differing id below
    rt.protected_free(a)


def test_fast_check_in_object_derivation():
    rt = make_rt()
    signed = rt.protected_malloc(16)
    token = rt.mem.id_at(strip(signed, CFG))
    for off in (0, 4, 8, 12):
        assert rt.fast_check(signed + off, token, signed, 4) == strip(signed, CFG) + off
    assert rt.stats.checks_fast == 4


def test_fast_check_crossing_neighbor():
    rt = make_rt()
    a = rt.protected_malloc(12)
    b = rt.protected_malloc(12)
    token = rt.mem.id_at(strip(a, CFG))
    with pytest.raises(ViolationError) as exc:
        rt.fast_check(a + 12, token, a, 4)
    assert kind_of(exc) is ViolationKind.SPATIAL_OOB


def test_fast_check_carry_into_signature_field():
    rt = make_rt()
    signed = rt.protected_malloc(16)
    token = rt.mem.id_at(strip(signed, CFG))
    carried = (signed + (1 << 46)) & ((1 << 64) - 1)
    with pytest.raises(ViolationError) as exc:
        rt.fast_check(carried, token, signed, 4)
    assert kind_of(exc) is ViolationKind.SPATIAL_OOB
    assert lock_bits(carried, CFG) != lock_bits(signed, CFG)


def test_fast_check_never_weaker_than_full_check():
    # Wherever the full check rejects, the fast path must reject too.
    rt = make_rt(seed=5)
    signed = rt.protected_malloc(16)
    rt.protected_malloc(16)
    token = rt.mem.id_at(strip(signed, CFG))
    rng = random.Random(11)
    for _ in range(200):
        off = rng.randrange(-32, 48)
        derived = (signed + off) & ((1 << 64) - 1)
        try:
            rt.checked_access(derived, 4)
            full_ok = True
        except ViolationError:
            full_ok = False
        try:
            rt.fast_check(derived, token, signed, 4)
            fast_ok = True
        except ViolationError:
            fast_ok = False
        assert not (fast_ok and not full_ok), f"fast accepted what full rejected at {off}"


class _CountingTable(dict):
    """A shadow word table that records each page looked up in it."""

    def __init__(self, table, reads):
        super().__init__(table)
        self.reads = reads

    def get(self, page, default=None):
        self.reads.append(("page", page))
        return super().get(page, default)


def count_shadow_reads(rt) -> list:
    """Record every shadow id the runtime reads: the address of each
    MemSpace.id_at call, and ("page", n) for each lookup it makes in the
    shadow word table it reads words from itself.  That table becomes a
    counting copy holding the same word pages, so it sees every page
    made so far."""
    reads, id_at = [], rt.mem.id_at

    def counting(addr):
        reads.append(addr)
        return id_at(addr)

    rt.mem.id_at = counting
    rt.shadow = _CountingTable(rt.shadow, reads)
    return reads


@pytest.mark.parametrize("offset,width", [(0, 4), (4, 4), (8, 4), (1, 2), (3, 1)])
def test_access_within_one_granule_reads_shadow_once(offset, width):
    rt = make_rt()
    signed = rt.protected_malloc(12)
    token = rt.mem.id_at(strip(signed, CFG))
    reads = count_shadow_reads(rt)
    assert rt.checked_access(signed + offset, width) == strip(signed, CFG) + offset
    assert len(reads) == 1
    reads.clear()
    assert rt.fast_check(signed + offset, token, signed, width) == strip(signed, CFG) + offset
    assert len(reads) == 1


@pytest.mark.parametrize("offset,width", [(2, 4), (0, 8), (4, 8)])
def test_access_straddling_granules_reads_shadow_twice(offset, width):
    rt = make_rt()
    signed = rt.protected_malloc(12)
    token = rt.mem.id_at(strip(signed, CFG))
    reads = count_shadow_reads(rt)
    assert rt.checked_access(signed + offset, width) == strip(signed, CFG) + offset
    assert len(reads) == 2
    reads.clear()
    assert rt.fast_check(signed + offset, token, signed, width) == strip(signed, CFG) + offset
    assert len(reads) == 2


@pytest.mark.parametrize("neighbour", [False, True])
@pytest.mark.parametrize("offset,width", [(10, 4), (8, 8), (6, 8)])
def test_access_straddling_object_end_is_spatial_oob(offset, width, neighbour):
    # the last byte lies in the granule past the object: unshadowed, or
    # shadowed by the next object's id
    rt = make_rt()
    signed = rt.protected_malloc(12)
    if neighbour:
        rt.protected_malloc(12)
    token = rt.mem.id_at(strip(signed, CFG))
    reads = count_shadow_reads(rt)
    with pytest.raises(ViolationError) as exc:
        rt.checked_access(signed + offset, width)
    assert kind_of(exc) is ViolationKind.SPATIAL_OOB
    assert len(reads) == 2
    reads.clear()
    with pytest.raises(ViolationError) as exc:
        rt.fast_check(signed + offset, token, signed, width)
    assert kind_of(exc) is ViolationKind.SPATIAL_OOB
    assert len(reads) == 2


@pytest.mark.parametrize("offset,width", [(0, 4), (2, 4), (0, 8)])
def test_bytewise_runtime_reads_every_byte(offset, width):
    rt = make_rt(bytewise=True)
    signed = rt.protected_malloc(12)
    token = rt.mem.id_at(strip(signed, CFG))
    reads = count_shadow_reads(rt)
    rt.checked_access(signed + offset, width)
    raw = strip(signed, CFG) + offset
    # the first byte's word from the word table, every other byte's by id_at
    shadow_page = (raw | 1 << CFG.msb_bit) >> 12
    assert reads == [("page", shadow_page)] + [raw + off for off in range(1, width)]
    reads.clear()
    rt.fast_check(signed + offset, token, signed, width)
    assert reads == [raw + off for off in range(width)]


def test_wrapper_memset_in_bounds():
    rt = make_rt()
    signed = rt.protected_malloc(16)
    assert rt.wrapper_call("memset", [signed, 0xAB, 16]) == signed
    assert rt.mem.read(strip(signed, CFG) + 15, 1) == 0xAB


def test_wrapper_memcpy_overrun_detected_at_last_byte():
    rt = make_rt()
    dest = rt.protected_malloc(12)
    src = rt.protected_malloc(16)
    with pytest.raises(ViolationError) as exc:
        rt.wrapper_call("memcpy", [dest, src, 16])
    assert kind_of(exc) is ViolationKind.SPATIAL_OOB


def test_wrapper_memcpy_returns_signed_dest():
    rt = make_rt()
    dest = rt.protected_malloc(16)
    src = rt.protected_malloc(16)
    rt.mem.write(strip(src, CFG), 4, 0xCAFEBABE)
    assert rt.wrapper_call("memcpy", [dest, src, 16]) == dest
    assert rt.mem.read(strip(dest, CFG), 4) == 0xCAFEBABE


def test_wrapper_zero_length_skips_checks():
    rt = make_rt()
    dest = rt.protected_malloc(4)
    before = rt.stats.checks_full
    rt.wrapper_call("memcpy", [dest, dest, 0])
    assert rt.stats.checks_full == before


def test_wrapper_strlen():
    rt = make_rt()
    signed = rt.protected_malloc(8)
    rt.mem.write(strip(signed, CFG), 4, 0x00414141)
    assert rt.wrapper_call("strlen", [signed]) == 3


def test_external_alloc_unsigned_then_resign():
    # the ext_alloc interceptor: a protected allocation, handed out stripped
    rt = make_rt()
    raw = strip(rt.protected_malloc(12), CFG)
    assert pac_field(raw, CFG) == 0
    signed = rt.resign_return(raw)
    assert rt.checked_access(signed, 4) == raw


def test_resign_unshadowed_memory_poisons():
    rt = make_rt()
    resigned = rt.resign_return(rt.mem.regions.heap.base + 0x800)
    assert is_poisoned(resigned, CFG)


def test_stray_signature_into_unshadowed_stack_is_use_after_scope():
    # A freed heap object's signature on a stack address: no retired
    # extent covers the address, no live object owns the signature, and
    # nothing shadows that stack word.
    rt = make_rt()
    signed = rt.protected_malloc(16)
    rt.protected_free(signed)
    stray = with_pac_field(rt.mem.regions.stack.base + 64, pac_field(signed, CFG), CFG)
    with pytest.raises(ViolationError) as exc_info:
        rt.checked_access(stray, 4)
    assert kind_of(exc_info) is ViolationKind.USE_AFTER_SCOPE
    assert exc_info.value.report.narrative == "unshadowed stack memory"


@pytest.mark.parametrize("freed", ["older", "newer"])
def test_strayed_pointer_of_a_wrapped_id_survivor_is_spatial_oob(freed):
    # Once the id counter wraps past 0xFFFFFFFF, two live objects share
    # id 1.  Freeing either one must leave the other live, so that its
    # pointer strayed into its neighbour is still attributed to it.
    rt = make_rt()
    rt.next_id = 1
    older = rt.protected_malloc(8)
    rt.protected_malloc(8)  # older's neighbour
    rt.next_id = 0xFFFFFFFF
    rt.protected_malloc(8)
    newer = rt.protected_malloc(8)
    rt.protected_malloc(8)  # newer's neighbour
    assert rt.mem.id_at(strip(older, CFG)) == rt.mem.id_at(strip(newer, CFG)) == 1
    victim, survivor = (older, newer) if freed == "older" else (newer, older)
    rt.protected_free(victim)
    with pytest.raises(ViolationError) as exc_info:
        rt.checked_access(survivor + 8, 4)
    assert kind_of(exc_info) is ViolationKind.SPATIAL_OOB
    assert f"[0x{strip(survivor, CFG):x}, " in exc_info.value.report.narrative


@pytest.mark.parametrize("region, kind", [("globals", ViolationKind.USE_AFTER_FREE),
                                          ("heap", ViolationKind.USE_AFTER_FREE),
                                          ("stack", ViolationKind.USE_AFTER_SCOPE)])
def test_registration_over_a_live_base_retires_the_old_extent(region, kind):
    # A global set up again, or a loop alloca signed again: the old
    # instance ends, so its genuine pointer reads as stale, not crafted,
    # and the region it lies in says whether it went out of scope.
    rt = make_rt()
    regions = rt.mem.regions
    base = regions.stack.limit - 16 if region == "stack" else getattr(regions, region).base
    old = rt.register_object(base, 16)
    old_size, old_id = rt.live[base]
    new = rt.register_object(base, 16)
    assert old_size == 16 and rt.retired == [(base, 16, old_id)]
    assert list(rt.sigs) == [rt.live[base][1]] == [rt.mem.id_at(base)]
    assert rt.live[base][0] == 16 and old_id not in rt.sigs
    assert rt.checked_access(new, 4) == base
    with pytest.raises(ViolationError) as exc_info:
        rt.checked_access(old, 4)
    assert kind_of(exc_info) is kind
    assert exc_info.value.report.narrative.endswith(f"object id=0x{old_id:08x}")


def test_heap_exhaustion_is_harness_error():
    rng = random.Random(0)
    mem = MemSpace(CFG, RegionMap.default(heap_size=4096))
    rt = SanitizerRuntime(mem, PacKey.generate(rng), rng.getrandbits(32))
    for _ in range(16):
        rt.protected_malloc(256)
    with pytest.raises(LimitExceeded):
        rt.protected_malloc(4)


@pytest.mark.parametrize("operation", ["access", "free"])
@pytest.mark.parametrize("bit, kind", [
    (55, ViolationKind.CRAFTED_PAC),
    (CFG.msb_bit, ViolationKind.SHADOW_ACCESS),
])
def test_malformed_pointer_classified_alike_by_access_and_free(operation, bit, kind):
    rt = make_rt()
    bad = rt.protected_malloc(12) | 1 << bit
    with pytest.raises(ViolationError) as exc:
        if operation == "access":
            rt.checked_access(bad, 4)
        else:
            rt.protected_free(bad)
    assert kind_of(exc) is kind
    if bit == 55:
        assert exc.value.report.narrative == "reserved bit 55 set"


# -- the heap's records against a reference that keeps an explicit freed set --


class RefHeap:
    """The allocator as plain records: each carved block's padded size,
    the set of freed bases, and the order they were freed in."""

    def __init__(self, cursor):
        self.cursor, self.size, self.freed, self.order = cursor, {}, set(), []

    def malloc(self, size):
        padded = padded_size(size)
        newest = [base for base in self.order if self.size[base] == padded][-1:]
        if newest:
            base = newest[0]
            self.order.remove(base)
            self.freed.remove(base)
        else:
            base, self.cursor = self.cursor, self.cursor + padded
            self.size[base] = padded
        return base

    def free(self, base):
        """Whether the free is legal; if it is, the block is freed."""
        if base not in self.size or base in self.freed:
            return False
        self.freed.add(base)
        self.order.append(base)
        return True


def assert_heap_matches(rt, ref):
    assert rt.alloc == ref.size and rt.heap_cursor == ref.cursor
    freed = {(rt.alloc[base], base) for blocks in rt.free_lists.values() for base in blocks}
    assert freed == {(ref.size[base], base) for base in ref.freed}
    for size, blocks in rt.free_lists.items():  # each size's blocks, oldest freed first
        assert list(blocks) == [base for base in ref.order if ref.size[base] == size]


@pytest.mark.parametrize("seed", range(4))
def test_reuse_takes_the_newest_freed_block_of_its_size(seed):
    """Frees of two sizes interleave; every allocation reuses the block
    of its size freed last, and a free is legal exactly when the block
    was carved and is not freed."""
    rng = random.Random(seed)
    rt = make_rt(seed)
    ref = RefHeap(rt.heap_cursor)
    carved, frees = [], 0
    for step in range(300):
        if not carved or rng.random() < 0.5:
            size = rng.choice((8, 16, 5, 13))  # two padded sizes, 8 and 16
            base = rt.plain_malloc(size)
            assert base == ref.malloc(size), step
            carved.append(base)
        else:
            base = rng.choice(carved) + rng.choice((0, 0, 0, 4))
            legal = ref.free(base)
            if legal:
                rt.plain_free(base)
                frees += 1
            else:
                with pytest.raises(ViolationError, match="invalid free target"):
                    rt.plain_free(base)
        assert_heap_matches(rt, ref)
    assert (rt.stats.allocs, rt.stats.frees) == (len(carved), frees)
    assert len(carved) > len(ref.size) and frees < 300 - len(carved)  # reuses and refusals
    # the interleaving itself: a, b (8) and c, d (16), freed a, c, b, d
    a, b, c, d = (rt.plain_malloc(size) for size in (8, 8, 16, 16))
    for base in (a, c, b, d):
        rt.plain_free(base)
    assert [rt.plain_malloc(size) for size in (8, 16, 8, 16)] == [b, d, a, c]


def test_double_free_is_reported_after_the_block_is_reused():
    rt = make_rt()
    ref = RefHeap(rt.heap_cursor)
    first = rt.protected_malloc(16)
    base = strip(first, CFG)
    assert ref.malloc(16) == base and ref.free(base)
    rt.protected_free(first)
    again = rt.protected_malloc(16)  # the same block, under a new id
    assert strip(again, CFG) == ref.malloc(16) == base and again != first
    assert ref.free(base) and not ref.free(base)
    rt.protected_free(again)
    for ptr in (again, first):  # both name the freed block
        with pytest.raises(ViolationError, match=f"block at 0x{base:x} already freed") as exc:
            rt.protected_free(ptr)
        assert kind_of(exc) == ViolationKind.DOUBLE_FREE
    # A carved block that is not freed but has no id is no double free.
    carved = rt.plain_malloc(16)
    assert ref.malloc(16) == carved
    with pytest.raises(ViolationError, match="free through a stale pointer") as exc:
        rt.protected_free(with_pac_field(carved, 1, CFG))
    assert kind_of(exc) == ViolationKind.USE_AFTER_FREE
    assert_heap_matches(rt, ref)


def test_free_of_a_freed_or_never_carved_address_is_refused():
    rt = make_rt()
    ref = RefHeap(rt.heap_cursor)
    freed = rt.plain_malloc(24)
    assert ref.malloc(24) == freed and ref.free(freed)
    rt.plain_free(freed)
    never = rt.heap_cursor + 64  # past every carved block
    for addr in (freed, never, freed + 4):
        with pytest.raises(ViolationError, match="invalid free target") as exc:
            rt.plain_free(addr)
        assert kind_of(exc) == ViolationKind.SPATIAL_OOB
    # A signed pointer to each: protected_free authenticates it and finds
    # no live heap allocation at its base.
    for base, padded in ((freed, 24), (never, 8)):
        signed = rt.register_object(base, padded)
        with pytest.raises(ViolationError, match="not a live heap allocation") as exc:
            rt.protected_free(signed)
        assert kind_of(exc) == ViolationKind.SPATIAL_OOB
    assert_heap_matches(rt, ref)
