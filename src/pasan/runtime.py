"""Sanitizer runtime: allocation and deallocation, the full and fast
pointer checks, standard-function wrappers, and violation reporting.

Every live protected object is shadowed by one uniform nonzero 32-bit
id; freed extents are uniformly zero.  Ids are drawn from a counter
that starts at a random 32-bit value per run and wraps modulo 2^32,
skipping 0.  A pointer authenticates iff its signature matches the id
shadowing the byte it points at, which is what turns both out-of-bounds
derivation and stale pointers into detectable faults.
"""
from __future__ import annotations

from array import array

from .errors import LimitExceeded, ViolationError, ViolationKind
from .memspace import _ZERO_WORDS, MemSpace
from .pacore import (
    MASK64,
    RESERVED_BIT,
    PacKey,
    compute_pac,
    pac_auth,
    pac_field,
    pac_sign,
    poison,
    with_pac_field,
)


def padded_size(size: int) -> int:
    """Allocation sizes rounded up to a nonzero multiple of the 4-byte
    shadow-word granule; zero-size requests still get one granule so the
    returned pointer is checkable."""
    if size < 0:
        raise ValueError("negative allocation size")
    return max(4, (size + 3) & ~3)


class Stats:
    def __init__(self):
        self.checks_full = self.checks_fast = self.allocs = self.frees = self.insts = 0

    def to_json(self) -> dict:
        return dict(vars(self))  # in the order __init__ sets them


class SanitizerRuntime:
    """Per-run sanitizer state: allocator, id counter, signing key,
    global pointer table, and the live/retired object registries used to
    attribute failed authentications to a violation kind.  An object is
    its base, padded size and id, wholly inside one region.  A carved
    heap block is freed exactly when its base sits in its size's free list."""

    def __init__(self, mem: MemSpace, key: PacKey, next_id: int, bytewise: bool = False):
        self.mem = mem
        self.cfg = mem.cfg
        self.key = key
        self.next_id = next_id
        self.bytewise = bytewise
        self.alloc: dict[int, int] = {}  # each carved block's padded size, by base
        self.free_lists: dict[int, dict[int, None]] = {}  # size -> freed bases, newest last
        self.heap_cursor = mem.regions.heap.base
        self.heap_limit = mem.regions.heap.limit
        self.gppt: dict[str, int] = {}
        self.live: dict[int, tuple[int, int]] = {}  # base -> (padded size, id): ids repeat
        # Each live id's signature field as pac_sign places it.  A pointer
        # whose field, address MSB and bit 55 equal its shadow id's entry
        # is exactly one pac_auth accepts, so the checks call pac_auth
        # only when the table misses; failures keep their one path.
        self.sigs: dict[int, int] = {}
        self.sig_mask = self.cfg.field_mask | 1 << self.cfg.msb_bit | 1 << RESERVED_BIT
        self.retired: list[tuple[int, int, int]] = []  # (base, padded size, id), oldest first
        self.stats = Stats()
        self.shadow = mem.shadow  # the success paths read and write its words themselves
        self.shadow_bit = 1 << self.cfg.msb_bit
        self.strip_mask, self.msb_bit = self.cfg.strip_mask, self.cfg.msb_bit  # for the checks

    # -- allocation: one carve -> record -> count path; protection is
    #    register_object layered on top --

    def _allocate(self, size: int) -> tuple[int, int]:
        """Carve a padded heap block (bump, or eager reuse of the newest
        freed block of its size: the adversarial case for temporal safety),
        record its size and count it; returns (base, padded size)."""
        padded = (size + 3) & ~3 if size > 0 else padded_size(size)
        blocks = self.free_lists.get(padded)
        if blocks:
            base = blocks.popitem()[0]
        else:
            base = self.heap_cursor
            if base + padded > self.heap_limit:
                raise LimitExceeded("simulated heap exhausted")
            self.heap_cursor = base + padded
            self.alloc[base] = padded
        self.stats.allocs += 1
        return base, padded

    def _release(self, base: int, size: int) -> None:
        self.free_lists.setdefault(size, {})[base] = None
        self.stats.frees += 1

    def register_object(self, base: int, padded: int) -> int:
        """Shadow an extent with a new id, retiring any live extent at its
        base first; returns the signed base.  A slice in one existing
        shadow page is written here, as a MAC the key's table has is
        placed; MemSpace and pac_sign take the rest."""
        if base in self.live:
            self.retire(base)
        obj_id = self.next_id & 0xFFFFFFFF or 1
        self.next_id = obj_id + 1
        page = self.shadow.get((base | self.shadow_bit) >> 12)
        if page is not None and base < self.shadow_bit and not (base | padded) & 3 \
                and 0 < (words := padded >> 2) <= 1024 - (at := base >> 2 & 1023):
            page[at : at + words] = array("I", (obj_id,)) * words
        else:
            self.mem.shadow_fill(base, padded, obj_id)
        self.live[base] = padded, obj_id
        cfg = self.cfg  # base passed the fill, so pac_sign would accept it
        mac = self.key.macs.get(obj_id)
        sig = pac_sign(base, obj_id, self.key, cfg) ^ base if mac is None \
            else (mac & cfg.lo_mask) << cfg.n | (mac >> cfg.lo_bits & cfg.hi_mask) << 56
        self.sigs[obj_id] = sig
        return base | sig

    def retire(self, base: int) -> None:
        """Unshadow the live extent at base and file it as retired."""
        padded, obj_id = self.live.pop(base)
        page = self.shadow.get((base | self.shadow_bit) >> 12)
        if page is not None and base < self.shadow_bit and not (base | padded) & 3 \
                and 0 < (words := padded >> 2) <= 1024 - (at := base >> 2 & 1023):
            page[at : at + words] = _ZERO_WORDS[:words]
        else:
            self.mem.shadow_clear(base, padded)
        self.sigs.pop(obj_id, None)
        self.retired.append((base, padded, obj_id))

    def protected_malloc(self, size: int) -> int:
        return self.register_object(*self._allocate(size))

    def plain_malloc(self, size: int) -> int:
        """Uninstrumented allocation: no id, no shadow, unsigned base."""
        return self._allocate(size)[0]

    def plain_free(self, addr: int) -> None:
        size = self.alloc.get(addr)
        if size is None or addr in self.free_lists.get(size, ()):
            raise ViolationError(ViolationKind.SPATIAL_OOB, addr,
                                 self.mem.id_at(addr & self.cfg.addr_mask), "invalid free target")
        self._release(addr, size)

    def resign_return(self, raw: int) -> int:
        """Re-sign a pointer coming back from uninstrumented code using
        the id found in its shadow; unshadowed memory yields a poisoned
        word that traps on first use."""
        obj_id = self.mem.id_at(raw)
        if obj_id == 0:
            return poison(raw, self.cfg)
        return with_pac_field(raw, compute_pac(obj_id, 0, self.key, self.cfg), self.cfg)

    # -- violation plumbing --

    def _classify_failure(self, addr: int, found: int, pac: int) -> tuple[ViolationKind, str]:
        """Attribute a failed authentication.  A signature matching a
        retired extent covering the address is a stale pointer; one
        matching some live object is that object's pointer strayed out
        of bounds; anything else was manufactured.  Only sign registers
        stack extents, so stale or unshadowed stack memory is out of scope."""
        stack = self.mem.regions.stack
        on_stack = stack.base <= addr < stack.limit
        for base, size, obj_id in reversed(self.retired):
            if base <= addr < base + size and compute_pac(obj_id, 0, self.key, self.cfg) == pac:
                if on_stack:
                    return ViolationKind.USE_AFTER_SCOPE, \
                        f"pointer into retired stack object id=0x{obj_id:08x}"
                return ViolationKind.USE_AFTER_FREE, \
                    f"pointer into freed object id=0x{obj_id:08x}"
        for base, (size, obj_id) in self.live.items():
            if compute_pac(obj_id, 0, self.key, self.cfg) == pac:
                return ViolationKind.SPATIAL_OOB, (
                    f"pointer of object id=0x{obj_id:08x} "
                    f"[0x{base:x}, 0x{base + size:x}) strayed to 0x{addr:x}"
                )
        if found == 0:
            if on_stack:
                return ViolationKind.USE_AFTER_SCOPE, "unshadowed stack memory"
            return ViolationKind.USE_AFTER_FREE, "unshadowed memory"
        return ViolationKind.CRAFTED_PAC, "signature matches no live or retired object"

    def _refuse_unsignable(self, ptr: int, found: int) -> None:
        """A pointer into the metadata half or with bit 55 set never
        authenticates; report it as such."""
        if (ptr >> self.cfg.msb_bit) & 1:
            raise ViolationError(ViolationKind.SHADOW_ACCESS, ptr, found,
                                 "pointer targets the metadata half")
        if (ptr >> RESERVED_BIT) & 1:
            raise ViolationError(ViolationKind.CRAFTED_PAC, ptr, found, "reserved bit 55 set")

    def _reject(self, ptr: int, raw: int, found: int) -> None:
        """Report a failed authentication, as _refuse_unsignable or else
        as _classify_failure attributes it."""
        self._refuse_unsignable(ptr, found)
        kind, narrative = self._classify_failure(raw, found, pac_field(ptr, self.cfg))
        raise ViolationError(kind, ptr, found, narrative)

    # -- the checks --

    def checked_access(self, ptr: int, width: int = 1, token: bool = False):
        """Authenticate ptr against the id shadowing it, verifying the
        access stays within one uniformly-shadowed extent; returns the
        stripped address for the raw access, paired with that id (the
        token a same-lock group's fast checks compare against) when
        token is set."""
        self.stats.checks_full += 1
        raw = ptr & self.strip_mask
        page = self.shadow.get((raw | self.shadow_bit) >> 12)
        found = 0 if page is None else page[raw >> 2 & 1023]
        if self.sigs.get(found) != ptr & self.sig_mask \
                and pac_auth(ptr, found, self.key, self.cfg) != ptr & self.cfg.clear_mask:
            self._reject(ptr, raw, found)
        # The last byte needs its own shadow read only when it lies in
        # another 4-byte granule; the per-byte oracle reads every byte.
        if self.bytewise or (raw & 3) + width > 4:
            for off in range(1, width) if self.bytewise else (width - 1,):
                other = self.mem.id_at(raw + off)
                if other != found:
                    raise ViolationError(ViolationKind.SPATIAL_OOB, ptr, other,
                                         f"{width}-byte access at 0x{raw:x} runs past the object")
        return (raw, found) if token else raw

    def fast_check(self, ptr: int, token: int, base: int, width: int = 1) -> int:
        """Same-lock verification: ptr must be bit-identical to an
        already-authenticated base above the in-object offset bits, and
        must point at memory shadowed by the id observed there."""
        self.stats.checks_fast += 1
        raw = ptr & self.strip_mask
        # the lock bits: every bit from the address MSB up, which derivation keeps
        if ptr >> self.msb_bit != base >> self.msb_bit:
            raise ViolationError(ViolationKind.SPATIAL_OOB, ptr, self.mem.id_at(raw),
                                 "derivation altered non-offset pointer bits")
        if (raw & 3) + width <= 4 and not self.bytewise:  # one granule: read it here
            page = self.shadow.get((raw | self.shadow_bit) >> 12)
            if page is not None and page[raw >> 2 & 1023] == token:
                return raw
        for off in range(width) if self.bytewise else (0, width - 1):
            found = self.mem.id_at(raw + off)
            if found != token:
                raise ViolationError(ViolationKind.SPATIAL_OOB, ptr, found, "shadow id changed"
                                     f" under same-lock access at 0x{raw + off:x}")
        return raw

    # -- deallocation --

    def protected_free(self, ptr: int) -> None:
        raw = ptr & self.strip_mask
        page = self.shadow.get((raw | self.shadow_bit) >> 12)
        found = 0 if page is None else page[raw >> 2 & 1023]
        if self.sigs.get(found) != ptr & self.sig_mask \
                and pac_auth(ptr, found, self.key, self.cfg) != ptr & self.cfg.clear_mask:
            if found:
                self._reject(ptr, raw, found)
            self._refuse_unsignable(ptr, found)
            if raw in self.free_lists.get(self.alloc.get(raw), ()):
                raise ViolationError(ViolationKind.DOUBLE_FREE, ptr, found,
                                     f"block at 0x{raw:x} already freed")
            raise ViolationError(ViolationKind.USE_AFTER_FREE, ptr, found,
                                 "free through a stale pointer")
        # Begin-of-object: the shadow word below the base must differ.
        # A zero guard word sits below the heap base, so the first block
        # passes; interior pointers see their own id below and fail.  It
        # lies in the page below only for raw in a page's first 4 bytes.
        below = raw - 4
        if raw & 4095 < 4:
            page = self.shadow.get((below | self.shadow_bit) >> 12)
        if (0 if page is None else page[below >> 2 & 1023]) == found:
            raise ViolationError(ViolationKind.FREE_INSIDE_BUFFER, ptr, found,
                                 f"free target 0x{raw:x} is not the start of the object")
        size = self.alloc.get(raw)
        if size is None or raw in self.free_lists.get(size, ()):
            raise ViolationError(ViolationKind.SPATIAL_OOB, ptr, found,
                                 "free target is not a live heap allocation")
        self.retire(raw)
        self._release(raw, size)

    # -- standard-function wrappers --

    def wrapper_call(self, name: str, args: list[int]) -> int:
        """Check-and-strip wrappers for builtins that take pointers.
        A wrapper that would return a pointer argument returns it in its
        signed form, exactly as received.  memset and memcpy check each
        range at its first and last byte (every byte under the per-byte
        oracle), destination first, and hand the raw addresses to
        MemSpace.move; strlen checks each byte MemSpace.strlen reads."""
        if name == "strlen":
            return self.mem.strlen(args[0], self.checked_access)
        dest, arg, length = args
        if length > 0:
            check = self.checked_access
            offsets = range(length) if self.bytewise else (0, length - 1)
            for off in offsets:
                check((dest + off) & MASK64, 1)
            if name == "memcpy":
                for off in offsets:
                    check((arg + off) & MASK64, 1)
                arg &= self.strip_mask
            self.mem.move(name, dest & self.strip_mask, arg, length)
        return dest
