"""Address-space split, metadata mapping, and the raw trap surface."""
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import calls_while
from pasan.errors import PreconditionViolated, ViolationError, ViolationKind
from pasan.interp import Interpreter
from pasan.memspace import HEAP_BASE, PAGE_SIZE, MemSpace, Region, RegionMap, shadow_of
from pasan.miniir import parse, validate
from pasan.pacore import AddressConfig, PacKey, pac_sign, poison

CFG = AddressConfig(47)


def make_mem():
    return MemSpace(CFG, RegionMap.default(heap_size=1 << 20, stack_size=1 << 16))


def test_shadow_of_examples():
    assert shadow_of(0x0000_0000_1000, CFG) == 0x4000_0000_1000
    assert shadow_of(0, CFG) == 1 << 46
    a = 0x123456
    assert shadow_of(shadow_of(a, CFG), CFG) == shadow_of(a, CFG)


@given(st.integers(min_value=0, max_value=(1 << 47) - 1))
def test_shadow_mapping_one_way(addr):
    s = shadow_of(addr, CFG)
    assert s >> 46 & 1 == 1
    assert shadow_of(s, CFG) == s


def test_id_at_fill_and_clear():
    mem = make_mem()
    base = HEAP_BASE
    mem.shadow_fill(base, 8, 0x1234ABCD)
    assert mem.id_at(base + 5) == 0x1234ABCD
    assert mem.id_at(0x1000_2000) == 0  # never allocated
    mem.shadow_clear(base, 8)
    assert mem.id_at(base + 5) == 0


def test_shadow_fill_exactness():
    mem = make_mem()
    base = HEAP_BASE + 0x100
    mem.shadow_fill(base, 12, 7)
    assert [mem.id_at(base + off) for off in (0, 4, 8)] == [7, 7, 7]
    assert mem.id_at(base + 12) == 0
    assert mem.id_at(base - 4) == 0


def test_adjacent_fills_keep_boundaries():
    mem = make_mem()
    base = HEAP_BASE
    mem.shadow_fill(base, 4, 1)
    mem.shadow_fill(base + 4, 4, 2)
    assert mem.id_at(base) == 1
    assert mem.id_at(base + 4) == 2
    mem.shadow_clear(base + 4, 4)
    assert mem.id_at(base) == 1
    assert mem.id_at(base + 4) == 0


def test_clear_idempotent():
    mem = make_mem()
    mem.shadow_clear(HEAP_BASE, 16)
    mem.shadow_clear(HEAP_BASE, 16)
    assert mem.id_at(HEAP_BASE) == 0


@pytest.mark.parametrize("base,size", [(HEAP_BASE, 0), (HEAP_BASE + 1, 4), (HEAP_BASE, 6)])
def test_fill_alignment_errors(base, size):
    mem = make_mem()
    with pytest.raises(PreconditionViolated):
        mem.shadow_fill(base, size, 1)
    with pytest.raises(PreconditionViolated):
        mem.shadow_clear(base, size)


@pytest.mark.parametrize("base,size", [(-4, 8), (-4, 4), (-8, 16), (-4096, 4100), (-(1 << 46), 8)])
def test_negative_shadow_range_raises_and_writes_nothing(base, size):
    """A range starting below address 0 is refused, even one reaching
    into the program half: its shadow address would be negative, so the
    store would land in page -1 and in the words shadowing address 0."""
    mem = make_mem()
    mem._store_bytes(0, bytes(range(1, 17)))           # program bytes 0..15
    mem.shadow_fill(0, 16, 0x11223344)                  # and their shadow

    def snapshot():  # copies: the pages are mutable
        return ({page: bytes(buf) for page, buf in mem.pages.items()},
                {page: words.tolist() for page, words in mem.shadow.items()})

    before = snapshot()
    assert before[1]  # the shadow table holds the words written above
    with pytest.raises(PreconditionViolated):
        mem.shadow_fill(base, size, 0x55)
    with pytest.raises(PreconditionViolated):
        mem.shadow_clear(base, size)
    assert snapshot() == before


@pytest.mark.parametrize("width", [1, 4, 8])
def test_read_write_round_trip(width):
    mem = make_mem()
    value = 0x1122334455667788 & ((1 << (8 * width)) - 1)
    mem.write(HEAP_BASE, width, value)
    assert mem.read(HEAP_BASE, width) == value


def test_little_endian_layout():
    mem = make_mem()
    mem.write(HEAP_BASE, 4, 0xAABBCCDD)
    assert mem.read(HEAP_BASE, 1) == 0xDD
    assert mem.read(HEAP_BASE + 3, 1) == 0xAA


def test_page_spanning_access():
    mem = make_mem()
    addr = HEAP_BASE + 4096 - 2
    mem.write(addr, 4, 0xDEADBEEF)
    assert mem.read(addr, 4) == 0xDEADBEEF


def test_poisoned_access_faults():
    mem = make_mem()
    key = PacKey(5)
    signed = pac_sign(HEAP_BASE, 3, key, CFG)
    with pytest.raises(ViolationError) as exc:
        mem.read(signed, 4)
    assert exc.value.report.kind is ViolationKind.POISONED_DEREF
    with pytest.raises(ViolationError) as exc:
        mem.read(poison(HEAP_BASE, CFG), 4)
    assert exc.value.report.kind is ViolationKind.POISONED_DEREF
    with pytest.raises(ViolationError) as exc:
        mem.write(HEAP_BASE | 1 << 55, 4, 0)
    assert exc.value.report.kind is ViolationKind.POISONED_DEREF


def test_shadow_access_faults():
    mem = make_mem()
    with pytest.raises(ViolationError) as exc:
        mem.read(shadow_of(HEAP_BASE, CFG), 4)
    assert exc.value.report.kind is ViolationKind.SHADOW_ACCESS


def test_unmapped_faults():
    mem = make_mem()
    with pytest.raises(ViolationError) as exc:
        mem.read(0x5000_0000, 4)
    assert exc.value.report.kind is ViolationKind.SPATIAL_OOB
    # an access straddling the end of a region is out too
    limit = mem.regions.heap.limit
    with pytest.raises(ViolationError):
        mem.write(limit - 2, 4, 0)


def test_program_access_cannot_reach_metadata():
    mem = make_mem()
    mem.shadow_fill(HEAP_BASE, 4, 0x42)
    # writing through the program address leaves the id intact
    mem.write(HEAP_BASE, 4, 0xFFFFFFFF)
    assert mem.id_at(HEAP_BASE) == 0x42
    # and no raw program access can alias into the shadow half
    with pytest.raises(ViolationError):
        mem.write(shadow_of(HEAP_BASE, CFG), 4, 0)


def test_regions_lie_in_the_program_half_and_do_not_overlap():
    cfg, top = AddressConfig(33), 1 << 32
    heap = Region(HEAP_BASE, 2 * PAGE_SIZE)
    cases = [
        (Region(HEAP_BASE - PAGE_SIZE, PAGE_SIZE), heap, Region(top - PAGE_SIZE, 2 * PAGE_SIZE),
         "stack region lies outside the program half"),
        (Region(-PAGE_SIZE, 2 * PAGE_SIZE), heap, Region(top - PAGE_SIZE, PAGE_SIZE),
         "globals region lies outside"),
        (Region(HEAP_BASE - PAGE_SIZE, 2 * PAGE_SIZE), heap, Region(top - PAGE_SIZE, PAGE_SIZE),
         "globals and heap regions overlap"),
        (Region(HEAP_BASE - PAGE_SIZE, PAGE_SIZE), heap, Region(HEAP_BASE + PAGE_SIZE, PAGE_SIZE),
         "heap and stack regions overlap"),
    ]
    for *regions, message in cases:
        with pytest.raises(ValueError, match=message):
            MemSpace(cfg, RegionMap(*regions))
    # Abutting regions, the stack ending at the top of the program half.
    MemSpace(cfg, RegionMap(Region(HEAP_BASE - PAGE_SIZE, PAGE_SIZE), heap,
                            Region(top - PAGE_SIZE, PAGE_SIZE)))


def test_runs_share_one_default_map_checked_once():
    # A map checks its geometry when it is built, and default hands out
    # one map per size triple: a second run under default Limits builds
    # no map and so runs no region check but its MemSpace's program-half
    # bound.
    prog = parse("func @main() -> i32 {\nbb0:\n  %z = const.i32 0\n  ret %z\n}\n")
    validate(prog)
    first = Interpreter(prog, CFG, 0)
    assert calls_while(Interpreter, prog, CFG, 1)[RegionMap.__init__.__code__] == 0
    assert Interpreter(prog, CFG, 2).mem.regions is first.mem.regions


@pytest.mark.parametrize("name", ["globals", "heap", "stack"])
@pytest.mark.parametrize("base_off, limit_off", [(8, 0), (0, -8), (2048, -1)],
                         ids=["base", "limit", "both"])
def test_regions_are_whole_pages(name, base_off, limit_off):
    # Abutting whole-page regions, one of which is moved off a page boundary.
    spans = {"globals": (HEAP_BASE - PAGE_SIZE, HEAP_BASE),
             "heap": (HEAP_BASE, HEAP_BASE + PAGE_SIZE),
             "stack": ((1 << 32) - PAGE_SIZE, 1 << 32)}
    base, limit = spans[name]
    spans[name] = base + base_off, limit + limit_off
    with pytest.raises(ValueError, match=f"^{name} region is not whole 4096-byte pages$"):
        RegionMap(*(Region(b, lim - b) for b, lim in spans.values()))


def fault_of(vet, addr, length):
    """(kind, address) of the fault vetting [addr, addr+length) raises."""
    try:
        vet(addr, length)
    except ViolationError as exc:
        return exc.report.kind, exc.report.pointer
    return None


@pytest.mark.parametrize("n", [33, 47])
def test_trap_span_faults_where_a_byte_walk_does(n):
    # Globals run into the heap, where the walk does not fault, and the
    # stack ends at the program half's top, past which bytes are shadow.
    top = 1 << (n - 1)
    mem = MemSpace(AddressConfig(n), RegionMap(globals=Region(HEAP_BASE - PAGE_SIZE, PAGE_SIZE),
                                               heap=Region(HEAP_BASE, PAGE_SIZE),
                                               stack=Region(top - PAGE_SIZE, PAGE_SIZE)))

    def walk(addr, length):
        for off in range(length):
            mem.read(addr + off, 1)

    edges = [HEAP_BASE - PAGE_SIZE, HEAP_BASE, HEAP_BASE + PAGE_SIZE, top - PAGE_SIZE, top, 1 << n]
    rng = random.Random(n)
    for _ in range(3000):
        addr, length = rng.choice(edges) + rng.randint(-48, 48), rng.randint(0, 420)
        assert fault_of(mem.trap_span, addr, length) == fault_of(walk, addr, length), (addr, length)
    assert mem.trap_span(HEAP_BASE - PAGE_SIZE, 2 * PAGE_SIZE) == HEAP_BASE - PAGE_SIZE
