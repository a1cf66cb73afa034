"""Tests for repro.cache.randomized — CEASER-like keyed permutation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheHierarchy, SetAssociativeCache
from repro.cache import randomized
from repro.cache.randomized import MEMO_KEYS, MEMO_LINES, RandomizedIndexing
from repro.cache.replacement import RandomReplacement
from repro.common.config import SystemConfig
from repro.common.rng import derive_rng
from repro.cpu import Core
from repro.defense import UnsafeBaseline
from repro.workloads import get_profile, synthesize


class TestPermutation:
    def test_bijective_on_sample(self):
        mapper = RandomizedIndexing(key=0xDEAD, bits=16)
        images = {mapper.permute(x) for x in range(4096)}
        assert len(images) == 4096

    @given(st.integers(0, (1 << 32) - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_unpermute_inverts(self, value):
        mapper = RandomizedIndexing(key=0x1234_5678)
        assert mapper.unpermute(mapper.permute(value)) == value

    def test_key_changes_mapping(self):
        a = RandomizedIndexing(key=1, bits=16)
        b = RandomizedIndexing(key=2, bits=16)
        diffs = sum(1 for x in range(1024) if a.permute(x) != b.permute(x))
        assert diffs > 1000

    def test_rekey_returns_new_mapping(self):
        a = RandomizedIndexing(key=1, bits=16)
        b = a.rekey(99)
        assert b.key == 99
        assert b.bits == a.bits
        assert any(a.permute(x) != b.permute(x) for x in range(256))

    def test_scrambles_congruence(self):
        # Addresses congruent under modulo indexing scatter under CEASER:
        # this is the property that excuses skipping L2 restoration.
        mapper = RandomizedIndexing(key=7, bits=32)
        sets = 2048
        images = {mapper.permute(x * sets) & (sets - 1) for x in range(64)}
        assert len(images) > 32  # far from all-in-one-set

    def test_range_validation(self):
        mapper = RandomizedIndexing(key=1, bits=16)
        with pytest.raises(ValueError):
            mapper.permute(1 << 16)
        with pytest.raises(ValueError):
            mapper.unpermute(-1)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            RandomizedIndexing(key=1, bits=15)
        with pytest.raises(ValueError):
            RandomizedIndexing(key=1, rounds=1)


class TestSharedSetIndexMemo:
    def test_same_seed_shares_one_memo_with_the_unshared_indices(self):
        program = synthesize(get_profile("gcc_r"), instructions=4_000, seed=3).program
        first = CacheHierarchy(seed=4242)
        first_cycles = Core(first, UnsafeBaseline(first)).run(program).cycles
        second = CacheHierarchy(seed=4242)
        memo = second.l2._set_index_memo
        assert memo is first.l2._set_index_memo
        # Every line the first run indexed is in the memo; the second
        # machine must see exactly what an unshared permutation gives.
        lines = sorted(memo)
        assert len(lines) > 100
        unshared = RandomizedIndexing(key=second.l2.randomizer.key)
        sets = second.l2.geometry.sets
        for line_number in lines:
            expected = unshared.permute(line_number & ((1 << unshared.bits) - 1)) & (sets - 1)
            assert second.l2.set_index_of(line_number << 6) == expected
        assert Core(second, UnsafeBaseline(second)).run(program).cycles == first_cycles

    def test_different_keys_never_share(self):
        memos = [CacheHierarchy(seed=seed).l2._set_index_memo for seed in range(8)]
        assert len({id(m) for m in memos}) == len(memos)
        mapper = RandomizedIndexing(key=77)
        assert mapper.rekey(78).set_index_memo(2048) is not mapper.set_index_memo(2048)
        assert mapper.set_index_memo(1024) is not mapper.set_index_memo(2048)
        assert RandomizedIndexing(key=77).set_index_memo(2048) is mapper.set_index_memo(2048)

    def test_bounds_hold(self):
        for key in range(MEMO_KEYS + 4):
            RandomizedIndexing(key=(1 << 40) + key).set_index_memo(2048)
        assert len(randomized._memos) <= MEMO_KEYS

        geometry = SystemConfig().l2
        mapper = RandomizedIndexing(key=(1 << 41) + 1)
        cache = SetAssociativeCache(
            geometry, RandomReplacement(derive_rng(0, "bound")), randomizer=mapper
        )
        memo = cache._set_index_memo
        for line_number in range(MEMO_LINES + 64):
            cache.set_index_of(line_number << 6)
        assert len(memo) == MEMO_LINES
        # Lines past the cap are computed, not stored, and still correct.
        for line_number in range(MEMO_LINES, MEMO_LINES + 64):
            assert line_number not in memo
            assert cache.set_index_of(line_number << 6) == (
                mapper.permute(line_number) & (geometry.sets - 1)
            )
