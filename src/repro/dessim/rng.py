"""Deterministic random-number streams.

Every stochastic component (topology placement, per-node backoff,
traffic destinations, ...) draws from its own named stream derived from
a single master seed.  Runs are exactly reproducible from the master
seed alone, and adding a new consumer never perturbs the draws seen by
existing ones — the property that makes A/B comparisons between MAC
schemes on *identical* topologies possible.

Consumers that need one gaussian per name for thousands of names (the
SINR model's per-pair shadowing) skip the retained stream entirely:
:meth:`RngRegistry.seed_for` gives the stream's seed and
:func:`first_gauss` derives, in one numpy pass, exactly the first
``gauss(0.0, 1.0)`` a fresh ``random.Random(seed)`` would return.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Sequence

import numpy as np

__all__ = ["RngRegistry", "first_gauss"]


class RngRegistry:
    """A factory of independent, reproducible ``random.Random`` streams."""

    def __init__(self, master_seed: int) -> None:
        if not isinstance(master_seed, int):
            raise TypeError(
                f"master_seed must be an int, got {type(master_seed).__name__}"
            )
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream seed is a SHA-256 hash of ``(master_seed, name)`` so
        that distinct names yield statistically independent streams and
        the mapping is stable across Python versions (unlike ``hash``).
        """
        if name not in self._streams:
            self._streams[name] = random.Random(self.seed_for(name))
        return self._streams[name]

    def seed_for(self, name: str) -> int:
        """The 64-bit seed of stream ``name``, without creating the stream."""
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def spawn(self, name: str) -> "RngRegistry":
        """Derive a child registry (e.g. one per topology replicate)."""
        digest = hashlib.sha256(
            f"{self.master_seed}/child:{name}".encode()
        ).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RngRegistry(master_seed={self.master_seed}, "
            f"streams={sorted(self._streams)})"
        )


# ----------------------------------------------------------------------
# Bulk first draws: Python's MT19937 seeding, vectorised across seeds.
# ----------------------------------------------------------------------

_N = 624
_M = 397
_TWO_PI = 2.0 * math.pi


def _init_genrand(seed: int) -> np.ndarray:
    state = [seed]
    for i in range(1, _N):
        prev = state[-1]
        state.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return np.array(state, dtype=np.uint32)


#: ``init_genrand(19650218)``, the state every ``init_by_array`` starts from.
_MT_BASE = _init_genrand(19650218)

_MULT_1 = np.uint32(1664525)
_MULT_2 = np.uint32(1566083941)

#: Seeds per vectorised block; the block's state is 624 x 4 bytes per seed.
_BLOCK = 4096

#: Below about this many seeds, seeding ``random.Random`` one by one
#: (~11 us each) is cheaper than the ~1,250 numpy steps of a block
#: (~10 ms for a block this small, on a 2-core x86-64 host).
_MIN_BULK = 768


def first_gauss(seeds: Sequence[int]) -> list[float]:
    """``[random.Random(s).gauss(0.0, 1.0) for s in seeds]``, bit for bit.

    CPython seeds its Mersenne Twister with ``init_by_array`` over the
    seed's 32-bit words, and ``gauss`` consumes the first four tempered
    outputs.  For two-word seeds (``2**32 <= s < 2**64``, i.e. every
    :meth:`RngRegistry.seed_for` value but one in four billion) this
    runs that seeding and those four outputs as uint32 array operations
    over a whole block of seeds at once.  The uniform-to-gaussian step
    uses ``math`` per value, as ``random.gauss`` does, so no libm
    rounding difference can creep in.  Other seeds, and batches too
    small to amortise the block, go through ``random.Random`` itself.
    """
    values: list[float | None] = [None] * len(seeds)
    if len(seeds) >= _MIN_BULK:
        wide = [i for i, seed in enumerate(seeds) if 1 << 32 <= seed < 1 << 64]
        for start in range(0, len(wide), _BLOCK):
            block = wide[start : start + _BLOCK]
            words = np.array([seeds[i] for i in block], dtype=np.uint64)
            for i, value in zip(block, _first_gauss_block(words)):
                values[i] = value
    return [
        random.Random(seed).gauss(0.0, 1.0) if value is None else value
        for seed, value in zip(seeds, values)
    ]


def _first_gauss_block(seeds: np.ndarray) -> list[float]:
    """:func:`first_gauss` of two-word uint64 seeds, vectorised."""
    # init_by_array(key=[low word, high word]); the key term of step j
    # is key[j] + j.
    terms = (
        (seeds & 0xFFFFFFFF).astype(np.uint32),
        (seeds >> 32).astype(np.uint32) + np.uint32(1),
    )
    mt = np.empty((_N, len(seeds)), dtype=np.uint32)
    rows = list(mt)  # row views, indexed without per-step slicing
    tmp = np.empty(len(seeds), dtype=np.uint32)

    def mix(prev: np.ndarray, word: object, mult: np.uint32) -> np.ndarray:
        # word ^ ((prev ^ (prev >> 30)) * mult), in uint32 arithmetic.
        np.right_shift(prev, 30, out=tmp)
        np.bitwise_xor(tmp, prev, out=tmp)
        np.multiply(tmp, mult, out=tmp)
        return np.bitwise_xor(tmp, word, out=tmp)

    # First pass, steps on words 1..623: each word is still
    # init_genrand's value, one constant for every seed.  Its 624th
    # step wraps round to word 1.
    rows[0][:] = _MT_BASE[0]
    for i in range(1, _N):
        np.add(mix(rows[i - 1], _MT_BASE[i], _MULT_1), terms[(i - 1) & 1], out=rows[i])
    rows[0][:] = rows[_N - 1]
    np.add(mix(rows[0], rows[1], _MULT_1), terms[1], out=rows[1])
    # Second pass: 623 steps from word 2, again wrapping round to word 1.
    for i in range(2, _N):
        np.subtract(mix(rows[i - 1], rows[i], _MULT_2), np.uint32(i), out=rows[i])
    rows[0][:] = rows[_N - 1]
    np.subtract(mix(rows[0], rows[1], _MULT_2), np.uint32(1), out=rows[1])
    rows[0][:] = 0x80000000
    # The first twist regenerates words 0..3 from the old 0..4 and
    # 397..400; temper them into the first four outputs.
    y = (mt[0:4] & 0x80000000) | (mt[1:5] & 0x7FFFFFFF)
    magic = np.where(y & 1, np.uint32(0x9908B0DF), np.uint32(0))
    out = mt[_M : _M + 4] ^ (y >> 1) ^ magic
    out ^= out >> 11
    out ^= (out << 7) & 0x9D2C5680
    out ^= (out << 15) & 0xEFC60000
    out ^= out >> 18
    # random() = (a * 2**26 + b) / 2**53, exact in float64.
    high = out >> 5
    low = out >> 6
    first = (high[0] * 67108864.0 + low[1]) * (1.0 / 9007199254740992.0)
    second = (high[2] * 67108864.0 + low[3]) * (1.0 / 9007199254740992.0)
    cos, log, sqrt = math.cos, math.log, math.sqrt
    # gauss(0.0, 1.0) returns 0.0 + z * 1.0, which maps a -0.0 to 0.0.
    return [
        0.0 + cos(x2pi) * sqrt(-2.0 * log(u))
        for x2pi, u in zip((first * _TWO_PI).tolist(), (1.0 - second).tolist())
    ]
