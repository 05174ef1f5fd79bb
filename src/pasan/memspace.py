"""Simulated flat virtual address space with a one-way metadata mapping.

The space is split in halves by the top address bit: the program half
holds heap, stack, and globals; the upper half shadows each 4-byte
granule of it with a 32-bit object id, reachable only through id_at and
the shadow_* operations.  Bytes and ids live in sparse maps of 4 KiB
pages and of 1,024-word pages, so a 2^47 space fits in host memory;
untouched pages read as zero.  Regions are whole pages, and only a write
its region admits makes a page, so each page lies inside one region.
"""
from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import combinations

from .errors import PreconditionViolated, ViolationError, ViolationKind
from .pacore import MASK64, AddressConfig

PAGE_SIZE = 4096
PAGE_MASK = PAGE_SIZE - 1
_ZERO_PAGE = bytes(PAGE_SIZE)  # how an untouched page reads
_ZERO_WORDS = array("I", _ZERO_PAGE)  # and an untouched shadow page
_BYTES = [bytes((b,)) for b in range(256)]  # memset's fill, by byte value

GLOBALS_BASE = 0x0001_0000
HEAP_BASE = 0x1000_0000
STACK_TOP = 0x3000_0000


class Region:
    def __init__(self, base: int, size: int):
        self.base, self.limit = base, base + size


class RegionMap:
    """Disjoint regions of whole pages at or above 0, checked when built,
    with their (base, limit) spans; the stack grows down from its limit.
    default shares one map, which no one changes, per size triple."""

    def __init__(self, globals: Region, heap: Region, stack: Region):
        self.globals, self.heap, self.stack = globals, heap, stack
        named = (("globals", globals), ("heap", heap), ("stack", stack))
        for name, region in named:
            if region.base < 0:
                raise ValueError(f"{name} region lies outside the program half")
            if (region.base | region.limit) & PAGE_MASK:
                raise ValueError(f"{name} region is not whole {PAGE_SIZE}-byte pages")
        for (a, ra), (b, rb) in combinations(named, 2):
            if ra.base < rb.limit and rb.base < ra.limit:
                raise ValueError(f"{a} and {b} regions overlap")
        self.spans = tuple((r.base, r.limit) for _, r in named)

    @classmethod
    @lru_cache(maxsize=16)
    def default(cls, globals_size: int = 1 << 16, heap_size: int = 64 << 20,
                stack_size: int = 1 << 20) -> "RegionMap":
        return cls(
            globals=Region(GLOBALS_BASE, globals_size),
            heap=Region(HEAP_BASE, heap_size),
            stack=Region(STACK_TOP - stack_size, stack_size),
        )


def shadow_of(addr: int, cfg: AddressConfig) -> int:
    """Map a program address to its metadata address by SETTING the
    address MSB.  Setting rather than flipping makes the mapping one-way:
    metadata addresses map to themselves."""
    return addr | 1 << cfg.msb_bit


class MemSpace:
    """One interpreter run's memory.  Single-threaded mutation."""

    def __init__(self, cfg: AddressConfig, regions: RegionMap | None = None):
        self.cfg = cfg
        self.regions = regions or RegionMap.default()
        self.pages: dict[int, bytearray] = {}
        self.shadow: dict[int, array] = {}  # addr's id: [(addr | MSB) >> 12][addr >> 2 & 1023]
        self._spans = spans = self.regions.spans  # the map checked the rest
        for name, (_, limit) in zip(("globals", "heap", "stack"), spans):
            if limit > 1 << cfg.msb_bit:
                raise ValueError(f"{name} region lies outside the program half")
        self._shadow_bit = 1 << cfg.msb_bit

    # -- raw byte store (no checks; callers enforce their own contracts) --

    def _load_bytes(self, addr: int, width: int) -> bytes:
        out = bytearray()
        while width:
            off = addr & PAGE_MASK
            chunk = min(width, PAGE_SIZE - off)
            out += self.pages.get(addr >> 12, _ZERO_PAGE)[off : off + chunk]
            addr += chunk
            width -= chunk
        return bytes(out)

    def _store_bytes(self, addr: int, data: bytes) -> None:
        pos = 0
        while pos < len(data):
            page, off = addr >> 12, addr & PAGE_MASK
            chunk = min(len(data) - pos, PAGE_SIZE - off)
            buf = self.pages.get(page)
            if buf is None:
                buf = self.pages[page] = bytearray(PAGE_SIZE)
            buf[off : off + chunk] = data[pos : pos + chunk]
            addr += chunk
            pos += chunk

    # -- metadata (shadow) operations --

    def id_at(self, addr: int) -> int:
        """The 32-bit object id shadowing addr: 0 if freed or never allocated."""
        page = self.shadow.get((addr | self._shadow_bit) >> 12)
        return 0 if page is None else page[addr >> 2 & 1023]

    def _check_shadow_range(self, base: int, size: int) -> None:
        if base & 3 or size <= 0 or size & 3:
            raise PreconditionViolated(
                f"shadow range base=0x{base:x} size={size} must be 4-aligned and nonzero"
            )
        if base < 0 or (base + size - 1) >> self.cfg.msb_bit:
            raise PreconditionViolated(f"shadow range 0x{base:x}+{size} leaves the program half")

    # The runtime writes a range whose shadow lies in one existing page.

    def shadow_fill(self, base: int, size: int, obj_id: int) -> None:
        """Write obj_id across every shadow word covering [base, base+size)."""
        self._shadow_write(base, size, obj_id)

    def shadow_clear(self, base: int, size: int) -> None:
        self._shadow_write(base, size, 0)

    def _shadow_write(self, base: int, size: int, word: int) -> None:
        self._check_shadow_range(base, size)
        fill = array("I", (word,))  # an id wider than 32 bits raises here
        at = shadow_of(base, self.cfg) >> 2  # a word index: its page is at >> 10
        end = at + (size >> 2)
        while at < end:
            words = min(end, (at | 1023) + 1) - at  # those in at's page
            page = self.shadow.get(at >> 10)
            if page is None:
                page = self.shadow[at >> 10] = _ZERO_WORDS[:]
            page[at & 1023 : (at & 1023) + words] = fill * words
            at += words

    # -- program-visible raw access (the trap surface) --

    def _check_access(self, addr: int, width: int) -> None:
        """Trap a raw access that may not proceed.  Its report names the
        id shadowing the address with every bit from n up cleared."""
        # Any bit in [n, 64) — signature field or bit 55 — traps the access.
        if addr >> self.cfg.n:
            kind, trap = ViolationKind.POISONED_DEREF, "PoisonedPointer"
        elif addr & self._shadow_bit:
            kind, trap = ViolationKind.SHADOW_ACCESS, "ShadowAccess"
        else:
            end = addr + width
            for base, limit in self._spans:
                if base <= addr and end <= limit:
                    return
            kind, trap = ViolationKind.SPATIAL_OOB, "Unmapped"
        raise ViolationError(kind, addr, self.id_at(addr & self.cfg.addr_mask),
                             f"raw access fault: {trap}")

    # The interpreter's load and store move the bytes of an access that
    # finds its page in pages and fits in it themselves (the page lies
    # inside one region, so such an access cannot fault), and call read
    # and write for anything else.

    def read(self, addr: int, width: int) -> int:
        self._check_access(addr, width)
        return int.from_bytes(self._load_bytes(addr, width), "little")

    def write(self, addr: int, width: int, value: int) -> None:
        self._check_access(addr, width)
        self._store_bytes(addr, (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little"))

    def trap_span(self, addr: int, length: int) -> int:
        """Vet an unchecked access to [addr, addr+length) so it traps at
        the first faulting byte; returns addr.  A byte that passes lies
        in a region, as does every byte up to its limit, so only the
        first byte and each region limit inside the range are tried: a
        limit can be the base of an abutting region."""
        at, end = addr, addr + length
        while at < end:
            self._check_access(at, 1)
            at = next(limit for base, limit in self._spans if base <= at < limit)
        return addr

    def move(self, name: str, dest: int, arg: int, length: int) -> None:
        """The bytes memcpy (arg is the source) or memset (arg is the fill
        byte) moves: length > 0 bytes at raw addresses the caller has
        vetted.  A destination inside one existing page is written here."""
        data = self._load_bytes(arg, length) if name == "memcpy" \
            else _BYTES[arg & 0xFF] * length
        off = dest & PAGE_MASK
        buf = self.pages.get(dest >> 12)
        if buf is not None and off + length <= PAGE_SIZE:
            buf[off : off + length] = data
        else:
            self._store_bytes(dest, data)

    def strlen(self, src: int, at) -> int:
        """The length of the NUL-terminated string at src; at(ptr) vets
        each byte read and returns its raw address, or raises."""
        length = 0
        while self._load_bytes(at((src + length) & MASK64), 1)[0]:
            length += 1
        return length
