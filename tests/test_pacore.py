"""Bit layout and sign/authenticate primitive."""
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_poisoned, lock_bits
from pasan import pacore
from pasan.errors import PreconditionViolated
from pasan.pacore import (
    MASK64,
    ZERO_CONTEXT,
    AddressConfig,
    PacKey,
    _mac,
    _siphash_words,
    compute_pac,
    error_pattern,
    modifier_for,
    pac_auth,
    pac_field,
    pac_sign,
    poison,
    siphash24,
    strip,
    with_pac_field,
)

CFG = AddressConfig(47)
KEY = PacKey(0x00112233445566778899AABBCCDDEEFF)


# --- independent SipHash-2-4 oracle: byte-accumulator formulation -------

def _rotl64(n, b):
    return n >> (64 - b) | (n & ((1 << (64 - b)) - 1)) << b


def _round(v0, v1, v2, v3):
    v0 = (v0 + v1) & ((1 << 64) - 1)
    v1 = _rotl64(v1, 13)
    v1 ^= v0
    v0 = _rotl64(v0, 32)
    v2 = (v2 + v3) & ((1 << 64) - 1)
    v3 = _rotl64(v3, 16)
    v3 ^= v2
    v0 = (v0 + v3) & ((1 << 64) - 1)
    v3 = _rotl64(v3, 21)
    v3 ^= v0
    v2 = (v2 + v1) & ((1 << 64) - 1)
    v1 = _rotl64(v1, 17)
    v1 ^= v2
    v2 = _rotl64(v2, 32)
    return v0, v1, v2, v3


def siphash24_oracle(k0, k1, data):
    v0 = 0x736F6D6570736575 ^ k0
    v1 = 0x646F72616E646F6D ^ k1
    v2 = 0x6C7967656E657261 ^ k0
    v3 = 0x7465646279746573 ^ k1
    c = 0
    t = 0
    for d in data:
        t |= d << (8 * (c % 8))
        c += 1
        if c % 8 == 0:
            v3 ^= t
            v0, v1, v2, v3 = _round(*_round(v0, v1, v2, v3))
            v0 ^= t
            t = 0
    t |= (len(data) & 0xFF) << 56
    v3 ^= t
    v0, v1, v2, v3 = _round(*_round(v0, v1, v2, v3))
    v0 ^= t
    v2 ^= 0xFF
    v0, v1, v2, v3 = _round(*_round(*_round(*_round(v0, v1, v2, v3))))
    return v0 ^ v1 ^ v2 ^ v3


# Canonical SipHash-2-4 vectors: key 000102..0f, message 00 01 02 ... prefixes.
SIP_VECTORS = [
    0x726FDB47DD0E0E31, 0x74F839C593DC67FD, 0x0D6C8009D9A94F5A, 0x85676696D7FB7E2D,
    0xCF2794E0277187B7, 0x18765564CD99A68D, 0xCBC9466E58FEE3CE, 0xAB0200F58B01D137,
]

# siphash24(all-zero 128-bit key, 16 zero bytes): the signature source for
# signing address 0 under object id 0 with a zero context.
GOLDEN_ZERO_MAC = 0x32CAECC280172976


def test_width_arithmetic():
    assert AddressConfig(47).p == 16
    assert AddressConfig(52).p == 11
    assert AddressConfig(33).p == 30
    for n in range(33, 53):
        assert AddressConfig(n).p == 63 - n


def test_config_bounds():
    with pytest.raises(ValueError):
        AddressConfig(32)
    with pytest.raises(ValueError):
        AddressConfig(53)
    with pytest.raises(ValueError):
        AddressConfig(47, p_override=17)
    assert AddressConfig(47, p_override=8).effective_p == 8
    assert AddressConfig(47, p_override=16).effective_p == 16


def test_key_must_be_128_bits():
    for key in (-1, 1 << 128):
        with pytest.raises(ValueError, match="128-bit"):
            PacKey(key)
    assert PacKey((1 << 128) - 1).k1 == MASK64


def test_prf_input_width_exceeds_pac_width():
    # 32-bit ids keep the signature input wider than any legal signature.
    for n in range(33, 53):
        assert 32 > AddressConfig(n).p


def test_modifier_examples():
    assert modifier_for(0x00000000, 0, CFG) == 0x0000000000000000
    assert modifier_for(0xFFFFFFFF, 0, CFG) == 0x00000000FFFFFFFF
    assert modifier_for(0x00000001, 1, CFG) == 0x0000400000000001


def test_modifier_rejects_wide_ids():
    with pytest.raises(PreconditionViolated):
        modifier_for(1 << 32, 0, CFG)


def test_siphash_canonical_vectors():
    k0 = int.from_bytes(bytes(range(8)), "little")
    k1 = int.from_bytes(bytes(range(8, 16)), "little")
    for length, expected in enumerate(SIP_VECTORS):
        assert siphash24(k0, k1, bytes(range(length))) == expected


def test_siphash_matches_independent_oracle():
    rng = random.Random(9)
    for length in range(0, 64):
        data = bytes(rng.randrange(256) for _ in range(length))
        k0, k1 = rng.getrandbits(64), rng.getrandbits(64)
        assert siphash24(k0, k1, data) == siphash24_oracle(k0, k1, data)


def test_sign_golden_value():
    # Frozen via the independent oracle: all-zero key, address 0, id 0.
    assert siphash24(0, 0, bytes(16)) == GOLDEN_ZERO_MAC
    assert siphash24_oracle(0, 0, bytes(16)) == GOLDEN_ZERO_MAC
    zero_key = PacKey(0)
    signed = pac_sign(0, 0, zero_key, CFG)
    assert pac_field(signed, CFG) == (GOLDEN_ZERO_MAC & 0xFFFF)
    assert pac_field(pac_sign(0, 0, zero_key, AddressConfig(52)), AddressConfig(52)) == (
        GOLDEN_ZERO_MAC & 0x7FF
    )
    assert pac_field(pac_sign(0, 0, zero_key, AddressConfig(33)), AddressConfig(33)) == (
        GOLDEN_ZERO_MAC & 0x3FFFFFFF
    )


def test_word_mac_matches_byte_siphash():
    # The kernel hashes the two message words directly; it must equal
    # SipHash over their little-endian bytes, address MSB set or clear,
    # any context.
    rng = random.Random(12)
    for _ in range(300):
        k0, k1 = rng.getrandbits(64), rng.getrandbits(64)
        cfg = AddressConfig(rng.randrange(33, 53))
        obj_id = rng.getrandbits(32)
        for msb in (0, 1):
            modifier = modifier_for(obj_id, msb, cfg)
            for context in (ZERO_CONTEXT, rng.getrandbits(64) | 1):
                data = modifier.to_bytes(8, "little") + context.to_bytes(8, "little")
                assert _siphash_words(k0, k1, (modifier, context, 16 << 56)) \
                    == siphash24(k0, k1, data) \
                    == siphash24_oracle(k0, k1, data)


def _pack(values):
    """One lane-parallel word: value i in the 128-bit lane i."""
    return sum(v << 128 * i for i, v in enumerate(values))


@pytest.mark.parametrize("lanes", [1, 2, 3, 17, 256])
def test_lane_kernel_matches_oracle_lane_by_lane(lanes):
    # Every lane is an independent SipHash: random keys, ids near both
    # ends of the 32-bit range, the address MSB set or clear, and context
    # words with their top bit set (the carries a lane must not leak).
    rng = random.Random(lanes)
    for _ in range(2):
        k0, k1 = rng.getrandbits(64), rng.getrandbits(64)
        cfg = AddressConfig(rng.randrange(33, 53))
        messages = []
        for _ in range(lanes):
            obj_id = rng.choice([rng.getrandbits(32), rng.randrange(4),
                                 (1 << 32) - 1 - rng.randrange(4)])
            context = rng.choice([ZERO_CONTEXT, rng.getrandbits(64), MASK64])
            messages.append((modifier_for(obj_id, rng.getrandbits(1), cfg), context))
        got = _siphash_words(k0, k1, (_pack(m for m, _ in messages),
                                      _pack(c for _, c in messages),
                                      _pack([16 << 56] * lanes)), lanes)
        expected = [siphash24_oracle(k0, k1, m.to_bytes(8, "little") + c.to_bytes(8, "little"))
                    for m, c in messages]
        assert got == _pack(expected)


@pytest.mark.parametrize("n", [33, 47])
def test_consecutive_signing_matches_cold_table(n):
    # Signing consecutive ids fills the key's table in batches ahead of
    # use; each pointer must equal one signed under an equal key whose
    # table is empty.  The ids count on from 0xFFFFFF00 as the runtime
    # draws them, wrapping past the reserved id 0.
    cfg = AddressConfig(n)
    key = PacKey(random.Random(n).getrandbits(128))
    ids = [(0xFFFFFEFF + k) % 0xFFFFFFFF + 1 for k in range(2000)]
    assert 0xFFFFFFFF in ids and 0 not in ids
    for obj_id in ids:
        cold = PacKey(key.key)
        assert cold.key == key.key and not cold.macs
        assert pac_sign(0x1000, obj_id, key, cfg) == pac_sign(0x1000, obj_id, cold, cfg)
    assert len(key.macs) < len(ids) + 256


def _oracle_mac(key, modifier):
    return siphash24_oracle(key.k0, key.k1, modifier.to_bytes(8, "little") + bytes(8))


@pytest.mark.parametrize("n, first, lanes", [(47, 0x1234, 1), (47, 0x1234, 4), (47, 7, 5),
                                              (47, 0xFFFFFF00, 256), (33, 0xFFFFFFFE, 33)])
def test_signing_ahead_tables_each_lane_as_the_oracle(monkeypatch, n, first, lanes):
    # One signing miss on a fresh key runs a batch of `lanes` MACs (the
    # batch floor set to it) and tables each under its own modifier.  At
    # n = 33 the batch from id 0xFFFFFFFE carries into the address MSB:
    # its modifiers from 2^32 on are those of ids 0, 1, ... with the MSB set.
    assert array("Q").itemsize == 8
    monkeypatch.setattr(pacore, "_BATCH_MIN", lanes)
    cfg = AddressConfig(n)
    key = PacKey(random.Random(lanes).getrandbits(128))
    modifier = modifier_for(first, 0, cfg)
    _mac(key, modifier, True)
    assert key.macs == {m: _oracle_mac(key, m) for m in range(modifier, modifier + lanes)}
    if n == 33:
        assert [compute_pac(obj_id, 1, key, cfg) for obj_id in range(lanes - 2)] \
            == [_oracle_mac(key, 1 << 32 | obj_id) & cfg.pac_mask for obj_id in range(lanes - 2)]
        assert len(key.macs) == lanes  # read from the table, no MAC computed


def test_auth_miss_computes_one_mac(monkeypatch):
    lanes_run = []
    kernel = pacore._siphash_words

    def counting(k0, k1, words, lanes=1):
        lanes_run.append(lanes)
        return kernel(k0, k1, words, lanes)

    monkeypatch.setattr(pacore, "_siphash_words", counting)
    key = PacKey(0x1234)
    for obj_id in range(100, 164):  # batches of 4, 4, 8, 16 and 32 lanes
        signed = pac_sign(0x1000, obj_id, key, CFG)
    assert lanes_run == [4, 4, 8, 16, 32]
    lanes_run.clear()
    pac_sign(0x2000, 164, key, CFG)
    assert lanes_run == [64]  # a signing miss runs a batch as large as the table
    for ptr, found in ((0x1000, 0), (signed | 1 << 46, 139), (signed, 0xDEAD0000)):
        lanes_run.clear()
        assert is_poisoned(pac_auth(ptr, found, key, CFG), CFG)
        assert lanes_run == [1]
        lanes_run.clear()
        pac_auth(ptr, found, key, CFG)
        assert lanes_run == []  # now in the table


addrs = st.integers(min_value=0, max_value=(1 << 46) - 1)
ids = st.integers(min_value=0, max_value=(1 << 32) - 1)
keys = st.integers(min_value=0, max_value=(1 << 128) - 1)


@given(addrs, ids, keys)
def test_round_trip(addr, obj_id, key):
    key = PacKey(key)
    signed = pac_sign(addr, obj_id, key, CFG)
    assert pac_auth(signed, obj_id, key, CFG) == addr


@given(addrs, ids, st.integers(min_value=-(1 << 20), max_value=1 << 20))
def test_derivation_carries_signature(addr, obj_id, delta):
    signed = pac_sign(addr, obj_id, KEY, CFG)
    derived = (signed + delta) & ((1 << 64) - 1)
    if 0 <= addr + delta < (1 << 46):  # no carry out of the offset bits
        assert pac_field(derived, CFG) == pac_field(signed, CFG)
        assert lock_bits(derived, CFG) == lock_bits(signed, CFG)


def test_sign_preconditions():
    with pytest.raises(PreconditionViolated):
        pac_sign(1 << 46, 1, KEY, CFG)  # address MSB set
    with pytest.raises(PreconditionViolated):
        pac_sign(1 << 55, 1, KEY, CFG)  # reserved bit set
    with pytest.raises(PreconditionViolated):
        pac_sign(pac_sign(0x1000, 1, KEY, CFG), 1, KEY, CFG)  # already signed


def test_auth_wrong_id_poisons():
    signed = pac_sign(0x1000, 7, KEY, CFG)
    if compute_pac(7, 0, KEY, CFG) != compute_pac(8, 0, KEY, CFG):
        got = pac_auth(signed, 8, KEY, CFG)
        assert is_poisoned(got, CFG)


def test_auth_msb_always_fails():
    # Even a signature matching the id must fail once the MSB is set.
    for obj_id in (0, 1, 7, 0xFFFFFFFF):
        signed = pac_sign(0x1000, obj_id, KEY, CFG)
        shadowish = signed | 1 << 46
        assert is_poisoned(pac_auth(shadowish, obj_id, KEY, CFG), CFG)


def test_poison_properties():
    assert error_pattern(AddressConfig(47)) == 0x8001
    x = pac_sign(0x2000, 3, KEY, CFG)
    assert pac_field(poison(x, CFG), CFG) == 0x8001
    assert poison(poison(x, CFG), CFG) == poison(x, CFG)
    assert is_poisoned(poison(x, CFG), CFG)
    assert strip(poison(x, CFG), CFG) == 0x2000


def test_strip_trivials():
    signed = pac_sign(0x1234, 9, KEY, CFG)
    assert strip(signed, CFG) == 0x1234
    assert strip(0x1234, CFG) == 0x1234
    assert strip(0x1234 | 1 << 55, CFG) == 0x1234


def test_two_keys_sign_differently():
    # Distinct keys should disagree on nearly every signature.
    rng = random.Random(42)
    same = 0
    trials = 10_000
    for _ in range(trials):
        k1, k2 = PacKey(rng.getrandbits(128)), PacKey(rng.getrandbits(128))
        if pac_sign(0x1000, 7, k1, CFG) == pac_sign(0x1000, 7, k2, CFG):
            same += 1
    assert 1 - same / trials >= 1 - 2 ** -CFG.p


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_field_insert_extract_inverse(word):
    value = pac_field(word, CFG)
    assert pac_field(with_pac_field(word, value, CFG), CFG) == value
    assert with_pac_field(with_pac_field(word, 0, CFG), value, CFG) == \
        with_pac_field(word, value, CFG)


def test_forgery_bound_five_sigma():
    # Uniformly random signature fields against one object: success rate
    # within 5 sigma of 2^-p at a reduced width for test speed.
    cfg = AddressConfig(47, p_override=8)
    rng = random.Random(7)
    key = PacKey(rng.getrandbits(128))
    base = 0x4000
    signed = pac_sign(base, 11, key, cfg)
    trials = 10 * (1 << cfg.effective_p) * 4
    hits = 0
    for _ in range(trials):
        candidate = with_pac_field(base, rng.getrandbits(cfg.effective_p), cfg)
        if pac_auth(candidate, 11, key, cfg) == base:
            hits += 1
    p0 = 2.0 ** -cfg.effective_p
    sigma = (trials * p0 * (1 - p0)) ** 0.5
    assert abs(hits - trials * p0) <= 5 * sigma


def _field_positions(cfg: AddressConfig) -> list[int]:
    """Reference layout: the signature field is bits [n, 55) then
    [56, 64), low to high, truncated to the effective width."""
    return [*range(cfg.n, 55), *range(56, 64)][:cfg.effective_p]


@pytest.mark.parametrize("n", [33, 40, 47, 52])
@pytest.mark.parametrize("p_override", [None, 1, "low-half", "straddle"])
def test_layout_matches_bit_position_reference(n, p_override):
    # "low-half" fills [n, 55) exactly; "straddle" needs one bit above 55
    p_override = {"low-half": 55 - n, "straddle": 56 - n}.get(p_override, p_override)
    cfg = AddressConfig(n, p_override=p_override)
    positions = _field_positions(cfg)
    assert len(positions) == (63 - n if p_override is None else p_override)
    rng = random.Random(n)
    words = [0, MASK64, 1 << 55] + [rng.getrandbits(64) for _ in range(300)]
    for ptr in words:
        value = rng.getrandbits(64)
        expected_field = sum((ptr >> pos & 1) << i for i, pos in enumerate(positions))
        assert pac_field(ptr, cfg) == expected_field
        replaced = ptr
        for i, pos in enumerate(positions):
            replaced = replaced & ~(1 << pos) | (value >> i & 1) << pos
        assert with_pac_field(ptr, value, cfg) == replaced
        stripped = ptr & ~(1 << 55)
        for pos in positions:
            stripped &= ~(1 << pos)
        assert strip(ptr, cfg) == stripped
