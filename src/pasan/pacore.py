"""Pointer-word bit layout and the sign/authenticate/strip primitive.

Pointers are plain 64-bit ints.  AddressConfig fixes the layout: address
bits occupy [0, n), the top address bit (n-1) selects the program half
(0) or the metadata half (1), bit 55 is reserved and must stay clear,
and the remaining non-address bits hold the authentication field,
packed low-to-high.

The signature is a keyed PRF (SipHash-2-4, 128-bit key) over the
modifier word concatenated with a zero 64-bit context word, both
serialized little-endian.  The modifier is the object id zero-extended
into the address bits plus the address MSB; each key tables its MACs.
"""
from __future__ import annotations

import sys
from array import array
from functools import lru_cache

from .errors import PreconditionViolated

MASK64 = (1 << 64) - 1
RESERVED_BIT = 55
ID_BITS = 32
ZERO_CONTEXT = 0


class AddressConfig:
    """Virtual-address width n and the derived signature width p = 63 - n.

    p_override shrinks the effective signature field for statistical
    tests only; it may never exceed the derived width.

    The layout is computed once here.  The signature field is
    effective_p bits, filling [n, 55) first, then [56, 64), low to high:
    lo_bits of them start at bit n, the remaining hi_bits at bit 56.
    """

    def __init__(self, n: int = 47, p_override: int | None = None):
        if not 33 <= n <= 52:
            raise ValueError(f"virtual-address width n={n} outside [33, 52]")
        if p_override is not None and not 1 <= p_override <= 63 - n:
            raise ValueError(f"p_override={p_override} outside [1, {63 - n}]")
        self.n, self.p_override, self.p = n, p_override, 63 - n
        self.effective_p = eff_p = 63 - n if p_override is None else p_override
        self.msb_bit, self.addr_mask = n - 1, (1 << n) - 1
        self.lo_bits = lo_bits = min(eff_p, RESERVED_BIT - n)
        self.lo_mask = (1 << lo_bits) - 1
        self.hi_mask = (1 << (eff_p - lo_bits)) - 1
        self.field_mask = self.lo_mask << n | self.hi_mask << 56
        self.clear_mask = MASK64 & ~self.field_mask
        # strip clears the signature field and the reserved bit
        self.strip_mask = self.clear_mask & ~(1 << RESERVED_BIT)
        self.pac_mask = (1 << eff_p) - 1  # truncates a MAC to the signature width
        # the error pattern in place in the signature field
        self.error_field = with_pac_field(0, error_pattern(self), self)


class PacKey:
    """128-bit signing secret, generated once per simulated run, with its
    64-bit halves k0 (low) and k1 (high) and its table of MACs by modifier."""

    def __init__(self, key: int):
        if not 0 <= key < (1 << 128):
            raise ValueError("key must be a 128-bit value")
        self.key, self.k0, self.k1 = key, key & MASK64, key >> 64
        self.macs: dict[int, int] = {}

    @classmethod
    def generate(cls, rng) -> "PacKey":
        return cls(rng.getrandbits(128))


def pac_field(ptr: int, cfg: AddressConfig) -> int:
    """Extract the signature field as a compact eff_p-bit integer."""
    return (ptr >> cfg.n) & cfg.lo_mask | ((ptr >> 56) & cfg.hi_mask) << cfg.lo_bits


def with_pac_field(ptr: int, value: int, cfg: AddressConfig) -> int:
    """Return ptr with its signature field replaced by value."""
    return ptr & cfg.clear_mask | (value & cfg.lo_mask) << cfg.n \
        | ((value >> cfg.lo_bits) & cfg.hi_mask) << 56


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


@lru_cache(maxsize=16)
def _lanes(lanes: int) -> tuple[int, int, int]:
    """(ones, ramp, mask): 1, i and MASK64 in each 128-bit lane i."""
    ones = ((1 << 128 * lanes) - 1) // ((1 << 128) - 1)
    return ones, sum(i << 128 * i for i in range(lanes)), MASK64 * ones


def _siphash_words(k0: int, k1: int, words, lanes: int = 1):
    """SipHash-2-4 over 64-bit little-endian message words; the last word
    carries the message length in its top byte.  Runs `lanes` hashes at
    once, lane i in bits [128i, 128i+64) of each word and of the result;
    the 64 bits above each lane catch carries and right shifts, which
    every add and rotation masks off."""
    ones, _, m = _lanes(lanes)
    v0 = (0x736F6D6570736575 ^ k0) * ones
    v1 = (0x646F72616E646F6D ^ k1) * ones
    v2 = (0x6C7967656E657261 ^ k0) * ones
    v3 = (0x7465646279746573 ^ k1) * ones
    for w in (*words, None):
        if w is None:  # finalization: four rounds, nothing absorbed
            w, rounds = 0, 4
            v2 ^= 0xFF * ones
        else:
            rounds = 2
        v3 ^= w
        for _ in range(rounds):
            v0 = (v0 + v1) & m
            v2 = (v2 + v3) & m
            v1 = (v1 << 13 | v1 >> 51) & m ^ v0
            v3 = (v3 << 16 | v3 >> 48) & m ^ v2
            v0 = (v0 << 32 | v0 >> 32) & m
            v2 = (v2 + v1) & m
            v0 = (v0 + v3) & m
            v1 = (v1 << 17 | v1 >> 47) & m ^ v2
            v3 = (v3 << 21 | v3 >> 43) & m ^ v0
            v2 = (v2 << 32 | v2 >> 32) & m
        v0 ^= w
    return v0 ^ v1 ^ v2 ^ v3


def siphash24(k0: int, k1: int, data: bytes) -> int:
    """SipHash-2-4 with a 64-bit result."""
    n_whole = len(data) // 8
    words = [int.from_bytes(data[8 * i : 8 * i + 8], "little") for i in range(n_whole)]
    words.append((len(data) & 0xFF) << 56 | int.from_bytes(data[8 * n_whole :], "little"))
    return _siphash_words(k0, k1, words)


# The final message word of a 16-byte message: its length, no tail bytes.
_LENGTH_16 = 16 << 56
_BATCH_MIN, _BATCH_CAP = 4, 256  # the fewest and most MACs one signing miss computes


def _mac(key: PacKey, modifier: int, ahead: bool = False) -> int:
    """siphash24 over modifier and the zero context, from the key's table.
    A miss computes that MAC or, signing ahead, a batch of it and the
    modifiers after it: a power of two from _BATCH_MIN up to the table's size and cap."""
    macs = key.macs
    if modifier not in macs:
        lanes = min(_BATCH_CAP, max(_BATCH_MIN, 1 << len(macs).bit_length() >> 1)) if ahead else 1
        ones, ramp, _ = _lanes(lanes)
        words = (modifier * ones + ramp, ZERO_CONTEXT, _LENGTH_16 * ones)
        out = _siphash_words(key.k0, key.k1, words, lanes)
        raw = array("Q", out.to_bytes(16 * lanes, "little"))  # lane i's MAC is word 2i
        if sys.byteorder == "big":
            raw.byteswap()
        macs.update(zip(range(modifier, modifier + lanes), raw[::2]))
    return macs[modifier]


def compute_pac(obj_id: int, msb: int, key: PacKey, cfg: AddressConfig) -> int:
    """The truncated signature an object with this id yields."""
    return _mac(key, modifier_for(obj_id, msb, cfg)) & cfg.pac_mask


def pac_sign(addr: int, obj_id: int, key: PacKey, cfg: AddressConfig) -> int:
    """Sign a clean program-half address, binding it to obj_id.

    The address MSB is fixed to zero at signing time, so pointers into
    the metadata half can never be produced legitimately.
    """
    if addr >> cfg.msb_bit:
        raise PreconditionViolated(
            f"cannot sign 0x{addr:x}: signature field, bit 55, and address MSB must be clear"
        )
    return with_pac_field(addr, _mac(key, modifier_for(obj_id, 0, cfg), True), cfg)


def pac_auth(ptr: int, obj_id: int, key: PacKey, cfg: AddressConfig) -> int:
    """Verify ptr's signature against obj_id.

    Success clears the signature field.  Failure returns the poisoned
    word.  Any pointer with the address MSB or bit 55 set fails
    unconditionally, which is what keeps the metadata half unreachable;
    its signature is still computed, so an id wider than 32 bits raises
    PreconditionViolated whatever the pointer.
    """
    msb = (ptr >> cfg.msb_bit) & 1
    expected = compute_pac(obj_id, msb, key, cfg)
    if msb or (ptr >> RESERVED_BIT) & 1 or pac_field(ptr, cfg) != expected:
        return poison(ptr, cfg)
    return ptr & cfg.clear_mask


def poison(ptr: int, cfg: AddressConfig) -> int:
    """Overwrite the signature field with the error pattern so any later
    dereference traps."""
    return ptr & cfg.clear_mask | cfg.error_field


def strip(ptr: int, cfg: AddressConfig) -> int:
    """Clear the signature field and bit 55; address bits untouched."""
    return ptr & cfg.strip_mask
