import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.random import Philox
from scipy.special import ndtri

from snrdiff import rng


class TestRowNormals:
    @given(seed=st.integers(0, 2**64 - 1), row_start=st.integers(0, 10**6),
           rows=st.integers(0, 60), width=st.integers(1, 17),
           cuts=st.lists(st.integers(0, 60), max_size=6))
    @example(seed=42, row_start=0, rows=100, width=3, cuts=[13, 50, 99])
    def test_partition_invariance(self, seed, row_start, rows, width, cuts):
        # any split of [row_start, row_stop) into spans reproduces the
        # single-call draw bit for bit
        row_stop = row_start + rows
        bounds = sorted({row_start, row_stop,
                         *(row_start + min(c, rows) for c in cuts)})
        full = rng.row_normals(seed, rng.PURPOSE_STEP, 7, row_start, row_stop,
                               width)
        pieces = [rng.row_normals(seed, rng.PURPOSE_STEP, 7, a, b, width)
                  for a, b in zip(bounds[:-1], bounds[1:])]
        assert full.shape == (rows, width)
        assert np.array_equal(full, np.vstack([np.empty((0, width)), *pieces]))

    @pytest.mark.parametrize("width", [1, 3, 4, 5, 8, 17])
    def test_matches_independent_rebuild(self, width):
        # row r reads Philox counter r * ceil(width / 4) of the key's stream;
        # each of its first `width` words becomes the 53-bit open-interval
        # uniform (w >> 11 + 1/2) / 2**53 and then scipy's ndtri
        seed, purpose, context = 2024, rng.PURPOSE_STEP, 9
        row_start, row_stop = 37, 61
        key = rng.philox_key(seed, purpose, context)
        blocks = -(-width // 4)
        uniforms = []
        for row in range(row_start, row_stop):
            words = Philox(key=key, counter=row * blocks).random_raw(width)
            uniforms.append([((int(w) >> 11) + 0.5) / 2**53 for w in words])
        expected = ndtri(np.array(uniforms))
        got = rng.row_normals(seed, purpose, context, row_start, row_stop,
                              width)
        assert got.tobytes() == expected.tobytes()

    def test_row_addressing(self):
        # row i of any span equals the single-row draw at absolute index i
        for i in (0, 5, 17):
            block = rng.row_normals(1, rng.PURPOSE_PRIOR, 0, 0, 20, 2)
            solo = rng.row_normals(1, rng.PURPOSE_PRIOR, 0, i, i + 1, 2)
            assert np.array_equal(block[i], solo[0])

    def test_context_separation(self):
        a = rng.row_normals(9, rng.PURPOSE_STEP, 0, 0, 10, 1)
        b = rng.row_normals(9, rng.PURPOSE_STEP, 1, 0, 10, 1)
        c = rng.row_normals(9, rng.PURPOSE_PRIOR, 0, 0, 10, 1)
        d = rng.row_normals(10, rng.PURPOSE_STEP, 0, 0, 10, 1)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_width_above_block_size(self):
        # widths > 4 span multiple counter blocks per row
        x = rng.row_normals(3, rng.PURPOSE_STEP, 2, 0, 50, 7)
        assert x.shape == (50, 7)
        y = rng.row_normals(3, rng.PURPOSE_STEP, 2, 20, 30, 7)
        assert np.array_equal(x[20:30], y)

    def test_standard_normal_statistics(self):
        x = rng.row_normals(0, rng.PURPOSE_MC, 0, 0, 200000, 1).ravel()
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01
        assert np.all(np.isfinite(x))

    def test_empty_range(self):
        x = rng.row_normals(0, rng.PURPOSE_STEP, 0, 10, 10, 3)
        assert x.shape == (0, 3)


class TestStream:
    def test_deterministic(self):
        a = rng.stream(5, rng.PURPOSE_DATA).standard_normal(16)
        b = rng.stream(5, rng.PURPOSE_DATA).standard_normal(16)
        assert np.array_equal(a, b)

    def test_purposes_independent(self):
        a = rng.stream(5, rng.PURPOSE_DATA).standard_normal(16)
        b = rng.stream(5, rng.PURPOSE_MC).standard_normal(16)
        assert not np.array_equal(a, b)


class TestKeyDerivation:
    def test_distinct_contexts(self):
        keys = {
            rng.philox_key(1),
            rng.philox_key(2),
            rng.philox_key(1, 0),
            rng.philox_key(1, 1),
            rng.philox_key(1, 0, 0),
            rng.philox_key(1, 0, 1),
        }
        assert len(keys) == 6

    def test_keys_are_128_bit(self):
        assert 0 <= rng.philox_key(123, 4, 5) < (1 << 128)
