"""CEASER-style randomized index mapping.

CleanupSpec does not restore evictions below L1; instead the lower-level
caches use an encrypted-address (CEASER-like) mapping so that an attacker
cannot tell which architectural addresses are congruent. We model the
essential property — a keyed pseudorandom permutation of line addresses
applied before set indexing — with a small Feistel network over the line
address bits (a real CEASER uses a low-latency block cipher; any keyed PRP
gives the same security-relevant behaviour at this abstraction level).

Remapping (CEASER's periodic key change) is supported via :meth:`rekey`,
which changes the permutation; the cache using the mapper is responsible for
flushing itself on rekey (our model rekeys only between experiments).

The permutation is a pure function of ``(key, bits, rounds)``, so the
line-number -> set-index memo that caches build on top of it is shared
process-wide between caches of the same set count and mapping (see
:meth:`RandomizedIndexing.set_index_memo`): every fresh machine with a given
seed reuses the indices the previous one computed. The memo is keyed by the
CEASER key, so a rekeyed mapper gets its own memo and never reads stale
indices.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

#: Most shared set-index memos kept at once (least recently handed out is
#: dropped first); a full quick campaign uses 9 keys.
MEMO_KEYS = 16
#: Most line numbers one shared memo holds; lines beyond it are computed
#: without being stored. A full quick campaign touches ~2.4k lines.
MEMO_LINES = 1 << 14

_memos: "OrderedDict[Tuple[int, int, int, int], Dict[int, int]]" = OrderedDict()


def _feistel_round(value: int, key: int, round_index: int, half_bits: int) -> int:
    """One Feistel round over ``2*half_bits`` bits of ``value``."""
    mask = (1 << half_bits) - 1
    left = (value >> half_bits) & mask
    right = value & mask
    digest = hashlib.blake2b(
        right.to_bytes(8, "little") + key.to_bytes(8, "little") + bytes([round_index]),
        digest_size=8,
    ).digest()
    f = int.from_bytes(digest, "little") & mask
    return ((right << half_bits) | (left ^ f)) & ((1 << (2 * half_bits)) - 1)


@dataclass
class RandomizedIndexing:
    """Keyed pseudorandom permutation of line-address bits.

    ``bits`` is the width of the permuted domain (line-address bits that
    participate in indexing; 32 covers a 256 GB physical space at 64 B
    lines). The permutation is bijective, so distinct lines never collide in
    the encrypted domain.
    """

    key: int
    bits: int = 32
    rounds: int = 4

    def __post_init__(self) -> None:
        if self.bits < 2 or self.bits % 2 != 0:
            raise ValueError("bits must be an even number >= 2")
        if self.rounds < 2:
            raise ValueError("need at least 2 Feistel rounds")

    def permute(self, line_number: int) -> int:
        """Map a line number into the encrypted domain."""
        if not 0 <= line_number < (1 << self.bits):
            raise ValueError(f"line number {line_number:#x} exceeds {self.bits} bits")
        value = line_number
        half = self.bits // 2
        for r in range(self.rounds):
            value = _feistel_round(value, self.key, r, half)
        return value

    def unpermute(self, encrypted: int) -> int:
        """Inverse permutation (tests verify bijectivity)."""
        if not 0 <= encrypted < (1 << self.bits):
            raise ValueError(f"value {encrypted:#x} exceeds {self.bits} bits")
        mask = (1 << (self.bits // 2)) - 1
        half = self.bits // 2
        value = encrypted
        for r in reversed(range(self.rounds)):
            # undo one round: value = (right' << h) | left'; right = right',
            # left = left' ^ F(right)
            right = (value >> half) & mask
            left_x = value & mask
            digest = hashlib.blake2b(
                right.to_bytes(8, "little")
                + self.key.to_bytes(8, "little")
                + bytes([r]),
                digest_size=8,
            ).digest()
            f = int.from_bytes(digest, "little") & mask
            left = left_x ^ f
            value = ((left << half) | right) & ((1 << self.bits) - 1)
        return value

    def set_index_memo(self, sets: int) -> Dict[int, int]:
        """The process-wide ``line_number -> set index`` memo for ``sets`` sets.

        Caches with the same set count and the same ``(key, bits, rounds)``
        get the same dict. Callers store at most :data:`MEMO_LINES` entries.
        """
        memo_key = (self.key, self.bits, self.rounds, sets)
        memo = _memos.get(memo_key)
        if memo is None:
            memo = _memos[memo_key] = {}
            if len(_memos) > MEMO_KEYS:
                _memos.popitem(last=False)
        else:
            _memos.move_to_end(memo_key)
        return memo

    def rekey(self, new_key: int) -> "RandomizedIndexing":
        """Return a mapper with a fresh key (CEASER remap epoch)."""
        return RandomizedIndexing(key=new_key, bits=self.bits, rounds=self.rounds)
