"""Pointer-word bit layout and the sign/authenticate/strip primitive.

Pointers are plain 64-bit ints.  AddressConfig fixes the layout: address
bits occupy [0, n), the top address bit (n-1) selects the program half
(0) or the metadata half (1), bit 55 is reserved and must stay clear,
and the remaining non-address bits hold the authentication field,
packed low-to-high.

The signature is a keyed PRF (SipHash-2-4, 128-bit key) over the
modifier word concatenated with a 64-bit context word, both serialized
little-endian; the context is always zero here.  The modifier is the
object id zero-extended into the address bits plus the address MSB.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import PreconditionViolated

MASK64 = (1 << 64) - 1
RESERVED_BIT = 55
ID_BITS = 32
ZERO_CONTEXT = 0


@dataclass(frozen=True)
class AddressConfig:
    """Virtual-address width n and the derived signature width p = 63 - n.

    p_override shrinks the effective signature field for statistical
    tests only; it may never exceed the derived width.

    The layout is computed once here.  The signature field is
    effective_p bits, filling [n, 55) first, then [56, 64), low to high:
    lo_bits of them start at bit n, the remaining hi_bits at bit 56.
    """

    n: int = 47
    p_override: int | None = None
    p: int = field(init=False, repr=False, compare=False)
    effective_p: int = field(init=False, repr=False, compare=False)
    msb_bit: int = field(init=False, repr=False, compare=False)
    addr_mask: int = field(init=False, repr=False, compare=False)
    lo_bits: int = field(init=False, repr=False, compare=False)
    lo_mask: int = field(init=False, repr=False, compare=False)
    hi_mask: int = field(init=False, repr=False, compare=False)
    field_mask: int = field(init=False, repr=False, compare=False)
    strip_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if not 33 <= n <= 52:
            raise ValueError(f"virtual-address width n={n} outside [33, 52]")
        if self.p_override is not None and not 1 <= self.p_override <= 63 - n:
            raise ValueError(f"p_override={self.p_override} outside [1, {63 - n}]")
        eff_p = 63 - n if self.p_override is None else self.p_override
        lo_bits = min(eff_p, RESERVED_BIT - n)
        lo_mask = (1 << lo_bits) - 1
        hi_mask = (1 << (eff_p - lo_bits)) - 1
        field_mask = lo_mask << n | hi_mask << 56
        layout = {
            "p": 63 - n,
            "effective_p": eff_p,
            "msb_bit": n - 1,
            "addr_mask": (1 << n) - 1,
            "lo_bits": lo_bits,
            "lo_mask": lo_mask,
            "hi_mask": hi_mask,
            "field_mask": field_mask,
            # strip clears the signature field and the reserved bit
            "strip_mask": MASK64 & ~field_mask & ~(1 << RESERVED_BIT),
        }
        for name, value in layout.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PacKey:
    """128-bit signing secret, generated once per simulated run."""

    key: int

    def __post_init__(self):
        if not 0 <= self.key < (1 << 128):
            raise ValueError("key must be a 128-bit value")

    @classmethod
    def generate(cls, rng) -> "PacKey":
        return cls(rng.getrandbits(128))

    @property
    def k0(self) -> int:
        return self.key & MASK64

    @property
    def k1(self) -> int:
        return self.key >> 64


def pac_field(ptr: int, cfg: AddressConfig) -> int:
    """Extract the signature field as a compact eff_p-bit integer."""
    return (ptr >> cfg.n) & cfg.lo_mask | ((ptr >> 56) & cfg.hi_mask) << cfg.lo_bits


def with_pac_field(ptr: int, value: int, cfg: AddressConfig) -> int:
    """Return ptr with its signature field replaced by value."""
    return (ptr & ~cfg.field_mask & MASK64) | (value & cfg.lo_mask) << cfg.n \
        | ((value >> cfg.lo_bits) & cfg.hi_mask) << 56


def lock_bits(ptr: int, cfg: AddressConfig) -> int:
    """Everything above the in-object offset bits: address MSB, reserved
    bit, and the full signature region.  Legal derivation never changes
    these, so equality here is the fast-path identity test."""
    return ptr >> cfg.msb_bit


def error_pattern(cfg: AddressConfig) -> int:
    """Field value written on failed authentication: nonzero for every
    legal width, and distinctive for diagnostics."""
    return (1 << (cfg.effective_p - 1)) | 1


def modifier_for(obj_id: int, msb: int, cfg: AddressConfig) -> int:
    """The word substituted for the pointer's address when computing a
    signature: the 32-bit id zero-extended into the address bits plus
    the address MSB.  All signature bits and bit 55 are zero."""
    if not 0 <= obj_id < (1 << ID_BITS):
        raise PreconditionViolated(f"object id 0x{obj_id:x} is not a 32-bit value")
    return obj_id | (msb & 1) << cfg.msb_bit


def _rotl(x: int, b: int) -> int:
    return ((x << b) | (x >> (64 - b))) & MASK64


def _sipround(v0: int, v1: int, v2: int, v3: int) -> tuple[int, int, int, int]:
    v0 = (v0 + v1) & MASK64
    v2 = (v2 + v3) & MASK64
    v1 = _rotl(v1, 13) ^ v0
    v3 = _rotl(v3, 16) ^ v2
    v0 = _rotl(v0, 32)
    v2 = (v2 + v1) & MASK64
    v0 = (v0 + v3) & MASK64
    v1 = _rotl(v1, 17) ^ v2
    v3 = _rotl(v3, 21) ^ v0
    v2 = _rotl(v2, 32)
    return v0, v1, v2, v3


def siphash24(k0: int, k1: int, data: bytes) -> int:
    """SipHash-2-4 with a 64-bit result."""
    v0 = 0x736F6D6570736575 ^ k0
    v1 = 0x646F72616E646F6D ^ k1
    v2 = 0x6C7967656E657261 ^ k0
    v3 = 0x7465646279746573 ^ k1
    n_whole = len(data) // 8
    for i in range(n_whole):
        m = int.from_bytes(data[8 * i : 8 * i + 8], "little")
        v3 ^= m
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
        v0 ^= m
    tail = data[8 * n_whole :]
    m = (len(data) & 0xFF) << 56 | int.from_bytes(tail, "little")
    v3 ^= m
    v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
    v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
    v0 ^= m
    v2 ^= 0xFF
    for _ in range(4):
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
    return v0 ^ v1 ^ v2 ^ v3


@lru_cache(maxsize=1 << 16)
def _mac(k0: int, k1: int, modifier: int, context: int) -> int:
    msg = modifier.to_bytes(8, "little") + context.to_bytes(8, "little")
    return siphash24(k0, k1, msg)


def compute_pac(obj_id: int, msb: int, key: PacKey, cfg: AddressConfig,
                context: int = ZERO_CONTEXT) -> int:
    """The truncated signature an object with this id yields."""
    return _mac(key.k0, key.k1, modifier_for(obj_id, msb, cfg), context) & (
        (1 << cfg.effective_p) - 1
    )


def pac_sign(addr: int, obj_id: int, key: PacKey, cfg: AddressConfig,
             context: int = ZERO_CONTEXT) -> int:
    """Sign a clean program-half address, binding it to obj_id.

    The address MSB is fixed to zero at signing time, so pointers into
    the metadata half can never be produced legitimately.
    """
    if addr >> cfg.msb_bit:
        raise PreconditionViolated(
            f"cannot sign 0x{addr:x}: signature field, bit 55, and address MSB must be clear"
        )
    return with_pac_field(addr, compute_pac(obj_id, 0, key, cfg, context), cfg)


def pac_auth(ptr: int, obj_id: int, key: PacKey, cfg: AddressConfig,
             context: int = ZERO_CONTEXT) -> int:
    """Verify ptr's signature against obj_id.

    Success clears the signature field.  Failure returns the poisoned
    word.  Any pointer with the address MSB or bit 55 set fails
    unconditionally, which is what keeps the metadata half unreachable.
    """
    msb = (ptr >> cfg.msb_bit) & 1
    expected = compute_pac(obj_id, msb, key, cfg, context)
    if msb == 0 and not (ptr >> RESERVED_BIT) & 1 and pac_field(ptr, cfg) == expected:
        return with_pac_field(ptr, 0, cfg)
    return poison(ptr, cfg)


def poison(ptr: int, cfg: AddressConfig) -> int:
    """Overwrite the signature field with the error pattern so any later
    dereference traps."""
    return with_pac_field(ptr, error_pattern(cfg), cfg)


def is_poisoned(ptr: int, cfg: AddressConfig) -> bool:
    return pac_field(ptr, cfg) == error_pattern(cfg)


def strip(ptr: int, cfg: AddressConfig) -> int:
    """Clear the signature field and bit 55; address bits untouched."""
    return ptr & cfg.strip_mask
