"""Sanitizer runtime: allocation and deallocation, the full and fast
pointer checks, standard-function wrappers, and violation reporting.

Every live protected object is shadowed by one uniform nonzero 32-bit
id; freed extents are uniformly zero.  A pointer authenticates iff its
signature matches the id shadowing the byte it points at, which is what
turns both out-of-bounds derivation and stale pointers into detectable
faults.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import FaultKind, LimitExceeded, MemoryFault, PasanError
from .memspace import MemSpace
from .pacore import (
    MASK64,
    RESERVED_BIT,
    PacKey,
    compute_pac,
    lock_bits,
    pac_auth,
    pac_field,
    pac_sign,
    poison,
    strip,
    with_pac_field,
)

# Runtime entry points the instrumentation pass emits calls to.
RT_MALLOC = "__pa_malloc"
RT_FREE = "__pa_free"
RT_WRAPPERS = {"__pa_memcpy": "memcpy", "__pa_memset": "memset", "__pa_strlen": "strlen"}
WRAPPED_EXTERNS = {"memcpy": "__pa_memcpy", "memset": "__pa_memset", "strlen": "__pa_strlen"}


def padded_size(size: int) -> int:
    """Allocation sizes rounded up to a nonzero multiple of the 4-byte
    shadow-word granule; zero-size requests still get one granule so the
    returned pointer is checkable."""
    if size < 0:
        raise ValueError("negative allocation size")
    return max(4, (size + 3) & ~3)


class ViolationKind(str, Enum):
    SPATIAL_OOB = "SpatialOOB"
    USE_AFTER_FREE = "UseAfterFree"
    DOUBLE_FREE = "DoubleFree"
    FREE_INSIDE_BUFFER = "FreeInsideBuffer"
    USE_AFTER_SCOPE = "UseAfterScope"
    POISONED_DEREF = "PoisonedDeref"
    SHADOW_ACCESS = "ShadowAccess"
    CRAFTED_PAC = "CraftedPac"


@dataclass
class ViolationReport:
    kind: ViolationKind
    pointer: int
    found_id: int
    narrative: str
    function: str = ""
    inst_index: int = -1
    inst_uid: int = -1

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "function": self.function,
            "inst_index": self.inst_index,
            "pointer_hex": f"0x{self.pointer:016x}",
            "found_id": self.found_id,
            "narrative": self.narrative,
        }


class ViolationError(PasanError):
    """Detection verdict; the interpreter halts the program on it."""

    def __init__(self, report: ViolationReport):
        self.report = report
        super().__init__(f"{report.kind.value}: {report.narrative}")


@dataclass
class IdGenerator:
    """32-bit allocation counter, randomly initialized per run; wraps
    modulo 2^32 skipping the reserved freed marker 0."""

    counter: int

    @classmethod
    def seeded(cls, rng) -> "IdGenerator":
        return cls(rng.getrandbits(32))

    def next(self) -> int:
        value = self.counter & 0xFFFFFFFF
        if value == 0:
            value = 1
        self.counter = (value + 1) & 0xFFFFFFFF
        return value


@dataclass
class AllocEntry:
    size: int
    live: bool


@dataclass
class Stats:
    checks_full: int = 0
    checks_fast: int = 0
    allocs: int = 0
    frees: int = 0
    insts: int = 0

    def to_json(self) -> dict:
        return {
            "checks_full": self.checks_full,
            "checks_fast": self.checks_fast,
            "allocs": self.allocs,
            "frees": self.frees,
            "insts": self.insts,
        }


@dataclass
class _Extent:
    base: int
    size: int
    obj_id: int
    origin: str  # heap | stack | global


class SanitizerRuntime:
    """Per-run sanitizer state: allocator, id generator, signing key,
    global pointer table, and the live/retired object registries used to
    attribute failed authentications to a violation kind."""

    def __init__(self, mem: MemSpace, key: PacKey, gen: IdGenerator,
                 bytewise: bool = False):
        self.mem = mem
        self.cfg = mem.cfg
        self.key = key
        self.gen = gen
        self.bytewise = bytewise
        self.alloc: dict[int, AllocEntry] = {}
        self.free_lists: dict[int, list[int]] = {}
        self.heap_cursor = mem.regions.heap.base
        self.gppt: dict[str, int] = {}
        self.live: dict[int, _Extent] = {}
        self.retired: list[_Extent] = []
        self.stats = Stats()

    # -- allocation: one carve -> record -> count path; protection is
    #    register_object layered on top --

    def _allocate(self, size: int) -> tuple[int, int]:
        """Carve a padded heap block (bump, or eager exact-size reuse: the
        adversarial case for temporal safety), record it live and count
        it; returns (base, padded size)."""
        padded = padded_size(size)
        blocks = self.free_lists.get(padded)
        if blocks:
            base = blocks.pop()
        else:
            base = self.heap_cursor
            if base + padded > self.mem.regions.heap.limit:
                raise LimitExceeded("simulated heap exhausted")
            self.heap_cursor = base + padded
        self.alloc[base] = AllocEntry(padded, True)
        self.stats.allocs += 1
        return base, padded

    def _release(self, base: int, entry: AllocEntry) -> None:
        entry.live = False
        self.free_lists.setdefault(entry.size, []).append(base)
        self.stats.frees += 1

    def register_object(self, base: int, padded: int, origin: str) -> tuple[int, int]:
        """Shadow a fresh extent with a new id; returns (id, signed base)."""
        obj_id = self.gen.next()
        self.mem.shadow_fill(base, padded, obj_id)
        self.live[obj_id] = _Extent(base, padded, obj_id, origin)
        return obj_id, pac_sign(base, obj_id, self.key, self.cfg)

    def retire_extent(self, base: int, padded: int, obj_id: int, origin: str) -> None:
        self.mem.shadow_clear(base, padded)
        self.live.pop(obj_id, None)
        self.retired.append(_Extent(base, padded, obj_id, origin))

    def protected_malloc(self, size: int) -> int:
        base, padded = self._allocate(size)
        return self.register_object(base, padded, "heap")[1]

    def plain_malloc(self, size: int) -> int:
        """Uninstrumented allocation: no id, no shadow, unsigned base."""
        return self._allocate(size)[0]

    def plain_free(self, addr: int) -> None:
        entry = self.alloc.get(addr)
        if entry is None or not entry.live:
            raise MemoryFault(FaultKind.UNMAPPED, addr, "invalid free target")
        self._release(addr, entry)

    def resign_return(self, raw: int) -> int:
        """Re-sign a pointer coming back from uninstrumented code using
        the id found in its shadow; unshadowed memory yields a poisoned
        word that traps on first use."""
        obj_id = self.mem.id_at(raw)
        if obj_id == 0:
            return poison(raw, self.cfg)
        return with_pac_field(raw, compute_pac(obj_id, 0, self.key, self.cfg), self.cfg)

    # -- violation plumbing --

    def _raise(self, kind: ViolationKind, pointer: int, found_id: int,
               narrative: str) -> None:
        raise ViolationError(ViolationReport(kind, pointer, found_id, narrative))

    def _classify_failure(self, addr: int, found: int, pac: int) -> tuple[ViolationKind, str]:
        """Attribute a failed authentication.  A signature matching a
        retired extent covering the address is a stale pointer; one
        matching some live object is that object's pointer strayed out
        of bounds; anything else was manufactured."""
        for ext in reversed(self.retired):
            if ext.base <= addr < ext.base + ext.size and \
                    compute_pac(ext.obj_id, 0, self.key, self.cfg) == pac:
                if ext.origin == "stack":
                    return ViolationKind.USE_AFTER_SCOPE, \
                        f"pointer into retired stack object id=0x{ext.obj_id:08x}"
                return ViolationKind.USE_AFTER_FREE, \
                    f"pointer into freed object id=0x{ext.obj_id:08x}"
        for ext in self.live.values():
            if compute_pac(ext.obj_id, 0, self.key, self.cfg) == pac:
                return ViolationKind.SPATIAL_OOB, (
                    f"pointer of object id=0x{ext.obj_id:08x} "
                    f"[0x{ext.base:x}, 0x{ext.base + ext.size:x}) strayed to 0x{addr:x}"
                )
        if found == 0:
            if self.mem.region_of(addr) == "stack":
                return ViolationKind.USE_AFTER_SCOPE, "unshadowed stack memory"
            return ViolationKind.USE_AFTER_FREE, "unshadowed memory"
        return ViolationKind.CRAFTED_PAC, "signature matches no live or retired object"

    def _authenticate(self, ptr: int) -> tuple[int, int, bool]:
        """Full authentication, shared by the access check and free:
        returns (raw address, shadow id, whether the signature matched).
        A pointer into the metadata half or with bit 55 set never
        authenticates; it is reported here."""
        cfg = self.cfg
        raw = ptr & cfg.strip_mask
        found = self.mem.id_at(raw)
        if pac_auth(ptr, found, self.key, cfg) == ptr & cfg.clear_mask:
            return raw, found, True
        if (ptr >> cfg.msb_bit) & 1:
            self._raise(ViolationKind.SHADOW_ACCESS, ptr, found,
                        "pointer targets the metadata half")
        if (ptr >> RESERVED_BIT) & 1:
            self._raise(ViolationKind.CRAFTED_PAC, ptr, found, "reserved bit 55 set")
        return raw, found, False

    def _reject(self, ptr: int, raw: int, found: int) -> None:
        kind, narrative = self._classify_failure(raw, found, pac_field(ptr, self.cfg))
        self._raise(kind, ptr, found, narrative)

    # -- the checks --

    def checked_access(self, ptr: int, width: int = 1, token: bool = False):
        """Authenticate ptr against the id shadowing it, verifying the
        access stays within one uniformly-shadowed extent; returns the
        stripped address for the raw access, paired with that id (the
        token a same-lock group's fast checks compare against) when
        token is set."""
        self.stats.checks_full += 1
        raw, found, authentic = self._authenticate(ptr)
        if not authentic:
            self._reject(ptr, raw, found)
        # The last byte needs its own shadow read only when it lies in
        # another 4-byte granule; the per-byte oracle reads every byte.
        if self.bytewise:
            offsets = range(1, width)
        else:
            offsets = (width - 1,) if (raw & 3) + width > 4 else ()
        for off in offsets:
            other = self.mem.id_at(raw + off)
            if other != found:
                self._raise(
                    ViolationKind.SPATIAL_OOB, ptr, other,
                    f"{width}-byte access at 0x{raw:x} runs past the object",
                )
        return (raw, found) if token else raw

    def fast_check(self, ptr: int, token: int, base: int, width: int = 1) -> int:
        """Same-lock verification: ptr must be bit-identical to an
        already-authenticated base above the in-object offset bits, and
        must point at memory shadowed by the id observed there."""
        self.stats.checks_fast += 1
        raw = strip(ptr, self.cfg)
        if lock_bits(ptr, self.cfg) != lock_bits(base, self.cfg):
            self._raise(ViolationKind.SPATIAL_OOB, ptr, self.mem.id_at(raw),
                        "derivation altered non-offset pointer bits")
        if self.bytewise:
            offsets = range(width)
        else:
            offsets = (0, width - 1) if (raw & 3) + width > 4 else (0,)
        for off in offsets:
            found = self.mem.id_at(raw + off)
            if found != token:
                self._raise(ViolationKind.SPATIAL_OOB, ptr, found,
                            f"shadow id changed under same-lock access at 0x{raw + off:x}")
        return raw

    # -- deallocation --

    def protected_free(self, ptr: int) -> None:
        raw, found, authentic = self._authenticate(ptr)
        if not authentic:
            if found == 0:
                entry = self.alloc.get(raw)
                if entry is not None and not entry.live:
                    self._raise(ViolationKind.DOUBLE_FREE, ptr, found,
                                f"block at 0x{raw:x} already freed")
                self._raise(ViolationKind.USE_AFTER_FREE, ptr, found,
                            "free through a stale pointer")
            self._reject(ptr, raw, found)
        # Begin-of-object: the shadow word below the base must differ.
        # A zero guard word sits below the heap base, so the first block
        # passes; interior pointers see their own id below and fail.
        if self.mem.id_at(raw - 4) == found:
            self._raise(ViolationKind.FREE_INSIDE_BUFFER, ptr, found,
                        f"free target 0x{raw:x} is not the start of the object")
        entry = self.alloc.get(raw)
        if entry is None or not entry.live:
            self._raise(ViolationKind.SPATIAL_OOB, ptr, found,
                        "free target is not a live heap allocation")
        self.retire_extent(raw, entry.size, found, "heap")
        self._release(raw, entry)

    # -- standard-function wrappers --

    def _range_check(self, ptr: int, length: int) -> int:
        """Check [ptr, ptr+length) at its first and last byte, or at every
        byte under the per-byte oracle; returns the raw start."""
        for off in range(length) if self.bytewise else (0, length - 1):
            self.checked_access((ptr + off) & MASK64, 1)
        return strip(ptr, self.cfg)

    def wrapper_call(self, name: str, args: list[int]) -> int:
        """Check-and-strip wrappers for builtins that take pointers.
        A wrapper that would return a pointer argument returns it in its
        signed form, exactly as received."""
        return self.mem.builtin(name, args, self._range_check,
                                lambda ptr: self.checked_access(ptr, 1))
