"""Numpy-exact draws without numpy's per-draw cost: the states of
np.random.PCG64(s) for many seeds at once, and what
Generator.choice(n, k, replace=False) returns, replayed in Python ints.

Numpy's choice draws by Floyd's algorithm (Bentley & Floyd, CACM 1987)
unless n > 10000 and k > n // 50: step j in n-k..n-1 takes v uniform in
[0, j] by Lemire's bounded draw (ACM TOMACS 2019) on 32-bit outputs, low
half of each 64-bit word first, and adds v, or j if v is taken.  It then
shuffles the k values, swapping position i with a Lemire draw on [0, i]
for i = k-1 .. 1.  From n = 2**32 on, the top steps take a raw 32-bit
output or 64-bit ones instead; there, and in the tail-shuffle regime,
numpy's own choice draws.
"""

from __future__ import annotations

import numpy as np

_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
_CHUNK_CELLS = 1 << 20  # trials x vertices of one batch of subset draws


def _floyd_only(n: int, k: int) -> bool:
    """Whether choice(n, k, replace=False) runs Floyd's steps on 32-bit draws."""
    return n < 1 << 32 and not (n > 10000 and k > n // 50)


def _uint32s(bg: np.random.PCG64):
    """The 32-bit outputs numpy's bounded draws take from bg's state on:
    the pending half word if there is one, then both halves of every 64-bit
    output, low first.  Reads ahead in doubling chunks, so nothing may draw
    from bg afterwards."""
    state = bg.state
    if state["has_uint32"]:
        yield state["uinteger"]
    words = 64
    while True:
        yield from bg.random_raw(words).astype("<u8", copy=False).view("<u4").tolist()
        words *= 2


def _lemire(draws, bound: int) -> int:
    """v uniform in [0, bound), 2 <= bound < 2**32, as numpy draws it."""
    m = next(draws) * bound
    if m & 0xFFFFFFFF < bound:
        threshold = (1 << 32) % bound
        while m & 0xFFFFFFFF < threshold:
            m = next(draws) * bound
    return m >> 32


def choices(rng: np.random.Generator, n: int, k: int):
    """Yield, without end, what successive rng.choice(n, k, replace=False)
    calls return, as lists of ints.  Reads ahead of them, so nothing may
    draw from rng afterwards."""
    if not _floyd_only(n, k):
        while True:
            yield rng.choice(n, size=k, replace=False).tolist()
    draws = _uint32s(rng.bit_generator)
    while True:
        out, taken = [], set()
        for j in range(n - k, n):
            v = _lemire(draws, j + 1) if j else 0  # step j == 0 draws nothing
            if v in taken:
                v = j
            taken.add(v)
            out.append(v)
        for i in range(k - 1, 0, -1):
            j = _lemire(draws, i + 1)
            out[i], out[j] = out[j], out[i]
        yield out


def _hashmix(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One step of numpy's SeedSequence hash on uint32 words; returns the
    hashed words and the next hash constant."""
    nxt = const * mult & 0xFFFFFFFF
    words = (words ^ np.uint32(const)) * np.uint32(nxt)
    return words ^ (words >> np.uint32(16)), nxt


def _pcg64_states(seeds: list[int]):
    """Yield the state of np.random.PCG64(s) for every seed s below 2**64,
    without building one: SeedSequence(s).generate_state(4, np.uint64) for
    all seeds at once in uint32 arithmetic (pool size 4), then PCG64's
    seeding in Python ints."""
    s = np.array(seeds, dtype=np.uint64)
    # a seed below 2**32 has one entropy word, and an absent word hashes
    # as 0, so every seed reads as two words followed by the empty pool
    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = [(s & 0xFFFFFFFF).astype(np.uint32), (s >> 32).astype(np.uint32), zero, zero]
    # numpy's INIT_A/MULT_A, MIX_MULT_L/MIX_MULT_R and INIT_B/MULT_B
    const = 0x43B0D7E5
    pool = []
    for words in entropy:
        words, const = _hashmix(words, const, 0x931E8875)
        pool.append(words)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hashmix(pool[src], const, 0x931E8875)
                mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashed
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    const = 0x8B51F9DD
    out = []
    for i in range(8):
        words, const = _hashmix(pool[i % 4], const, 0x58F38DED)
        out.append(words.astype(np.uint64))
    # 64-bit word i is out[2i] | out[2i+1] << 32; words 0 and 1 are the
    # high and low halves of the 128-bit seed, words 2 and 3 of the stream
    words = [(out[i] | out[i + 1] << np.uint64(32)).tolist() for i in range(0, 8, 2)]
    for seed_hi, seed_lo, seq_hi, seq_lo in zip(*words):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        # two LCG steps from state 0, adding the seed between them
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _subset_masks(n: int, k: int, seeds: list[int]) -> list[int]:
    """For every seed s below 2**64, the set that
    np.random.Generator(np.random.PCG64(s)).choice(n, k, replace=False)
    draws, as a vertex bitmask; one batch instead of one generator per seed.

    Each of Floyd's steps runs for a chunk of trials at once.  A trial in
    which Lemire's method rejects an output (probability below
    k * n / 2**32) reads further outputs than this batch aligns, and the
    tail-shuffle regime draws differently; those set one reused PCG64's
    state and draw by choices."""
    bg = np.random.PCG64(0)
    gen = np.random.Generator(bg)

    def redrawn(state: dict) -> int:
        bg.state = state
        return sum(1 << v for v in next(choices(gen, n, k)))

    if not _floyd_only(n, k):
        return [redrawn(state) for state in _pcg64_states(seeds)]
    first = max(n - k, 1)  # step j == 0 (k == n) takes 0 and draws nothing
    words = (n - first + 1) // 2
    chunk = max(1, _CHUNK_CELLS // max(n, 1))
    masks = []
    for lo in range(0, len(seeds), chunk):
        part = seeds[lo:lo + chunk]
        raw = np.empty((len(part), words), dtype=np.uint64)
        for r, state in enumerate(_pcg64_states(part)):
            bg.state = state
            raw[r] = bg.random_raw(words)
        draws = raw.astype("<u8", copy=False).view("<u4")
        rows = np.arange(len(part))
        chosen = np.zeros((len(part), n), dtype=bool)
        if k == n > 0:
            chosen[:, 0] = True
        rejected = np.zeros(len(part), dtype=bool)
        for i, j in enumerate(range(first, n)):
            m = draws[:, i].astype(np.uint64) * np.uint64(j + 1)
            rejected |= (m & 0xFFFFFFFF) < (1 << 32) % (j + 1)
            v = (m >> 32).astype(np.intp)
            v[chosen[rows, v]] = j
            chosen[rows, v] = True
        packed = np.packbits(chosen, axis=1, bitorder="little")
        width = packed.shape[1]
        flat = packed.tobytes()
        masks += [int.from_bytes(flat[r * width:(r + 1) * width], "little")
                  for r in range(len(part))]
        for r in np.flatnonzero(rejected):
            masks[lo + r] = redrawn(next(_pcg64_states([part[r]])))
    return masks
