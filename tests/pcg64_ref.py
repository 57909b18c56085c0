"""Pure-Python SeedSequence and PCG64, written from their published algorithms.

A second route to the words that simulator contract 2 reads, sharing no code
with numpy: ``SeedSequence`` is O'Neill's seed_seq hash (a pool of four
32-bit words filled by hashmix and mix), and ``PCG64`` is the 128-bit LCG
with the XSL-RR output function, seeded and advanced as numpy documents.
Only the parts the contract uses are here: integer entropy, no spawn key,
64-bit output words and ``advance``.
"""

from __future__ import annotations

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16

PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(entropy: tuple[int, ...]) -> list[int]:
    """Each non-negative integer as its 32-bit words, least significant
    first (0 is one zero word), concatenated in order."""
    words = []
    for n in entropy:
        words.append(n & MASK32)
        n >>= 32
        while n:
            words.append(n & MASK32)
            n >>= 32
    return words


class SeedSequence:
    def __init__(self, entropy: tuple[int, ...]):
        entropy_words = _uint32_words(entropy)
        hash_const = INIT_A

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = (hash_const * MULT_A) & MASK32
            value = (value * hash_const) & MASK32
            return value ^ (value >> XSHIFT)

        def mix(x: int, y: int) -> int:
            result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
            return result ^ (result >> XSHIFT)

        padded = entropy_words + [0] * (POOL_SIZE - len(entropy_words))
        pool = [hashmix(w) for w in padded[:POOL_SIZE]]
        for src in range(POOL_SIZE):
            for dst in range(POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy_words[POOL_SIZE:]:
            for dst in range(POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
        self.pool = pool

    def generate_state(self, n_words: int) -> list[int]:
        """``n_words`` 64-bit words, each two 32-bit outputs, low half first."""
        hash_const = INIT_B
        out32 = []
        for i in range(2 * n_words):
            value = self.pool[i % POOL_SIZE] ^ hash_const
            hash_const = (hash_const * MULT_B) & MASK32
            value = (value * hash_const) & MASK32
            out32.append(value ^ (value >> XSHIFT))
        return [lo | hi << 32 for lo, hi in zip(out32[::2], out32[1::2])]


class PCG64:
    def __init__(self, seed_seq: SeedSequence):
        s_hi, s_lo, i_hi, i_lo = seed_seq.generate_state(4)
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & MASK128
        self.state = 0
        self._step()
        self.state = (self.state + (s_hi << 64 | s_lo)) & MASK128
        self._step()

    def _step(self) -> None:
        self.state = (self.state * PCG_MULT + self.inc) & MASK128

    def random_raw(self, n: int) -> list[int]:
        """The next ``n`` 64-bit words: step, then XSL-RR of the new state."""
        out = []
        state, inc = self.state, self.inc
        for _ in range(n):
            state = (state * PCG_MULT + inc) & MASK128
            xored = ((state >> 64) ^ state) & MASK64
            rot = state >> 122
            out.append((xored >> rot | xored << (64 - rot)) & MASK64)
        self.state = state
        return out

    def advance(self, delta: int) -> None:
        """Jump ``delta`` steps ahead by composing the LCG map in O(log delta)."""
        acc_mult, acc_plus = 1, 0
        cur_mult, cur_plus = PCG_MULT, self.inc
        while delta > 0:
            if delta & 1:
                acc_mult = (acc_mult * cur_mult) & MASK128
                acc_plus = (acc_plus * cur_mult + cur_plus) & MASK128
            cur_plus = ((cur_mult + 1) * cur_plus) & MASK128
            cur_mult = (cur_mult * cur_mult) & MASK128
            delta >>= 1
        self.state = (acc_mult * self.state + acc_plus) & MASK128
