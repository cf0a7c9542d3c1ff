"""The seeded streams of the package, in pure Python.

Every draw the package makes (bond strengths, STM input bits, ESN
weights) reproduces NumPy's ``default_rng(seed)`` bit for bit, for the
two methods it calls: ``uniform(0, high)`` and ``integers(0, 2)``.
The stream is NumPy's: ``SeedSequence`` mixes the integer seed into a
four-word pool, whose ``generate_state(4, uint64)`` seeds a PCG64
generator (a 128-bit LCG with XSL-RR output). NumPy's NEP 19 keeps the
BitGenerator streams stable across releases but not the ``Generator``
methods built on them, so both are written out here. It also spares
every process the import of NumPy's random module (about 6 MB).
"""
from __future__ import annotations

import operator

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants, and its pool size in 32-bit words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _pool(seed: int) -> list[int]:
    """``SeedSequence(seed).pool``: the seed's 32-bit words, least
    significant first, hashed and mixed into ``_POOL_SIZE`` words."""
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


class Stream:
    """The stream of NumPy's ``default_rng(seed)`` for a non-negative
    integer seed, with the two ``Generator`` methods the package calls."""

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        # generate_state(4, uint64): eight 32-bit words, paired low-high.
        pool = _pool(seed)
        hash_const = _INIT_B
        words = []
        for i in range(8):
            value = pool[i % _POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const & _MASK32
            words.append(value ^ value >> 16)
        s = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
        # PCG64's seeding: state s[0]:s[1] and stream s[2]:s[3], high first.
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _MASK128
        self._state = (self._inc + (s[0] << 64 | s[1])) & _MASK128
        self._step()
        self._half: int | None = None  # the unused high half of a next32

    def _step(self) -> int:
        self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        return self._state

    def _next64(self) -> int:
        state = self._step()
        value = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (value >> rot | value << (-rot & 63)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            value, self._half = self._half, None
            return value
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def uniform(self, high: float, size: int) -> list[float]:
        """``uniform(0.0, high, size)``: 53-bit doubles on [0, high)."""
        return [0.0 + high * ((self._next64() >> 11) * 2.0**-53)
                for _ in range(size)]

    def bits(self, size: int) -> list[int]:
        """``integers(0, 2, size)``: Lemire's bounded draw from 32-bit
        outputs, which for the range 2 never rejects and keeps the top
        bit."""
        return [self._next32() * 2 >> 32 for _ in range(size)]
