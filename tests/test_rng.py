import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.random import Generator, Philox
from scipy.special import ndtri

from snrdiff import SamplerConfig, make_schedule, oracle_score_model, rng
from snrdiff import sample, single_gaussian


def open_uniforms(words):
    """The 53-bit open-interval uniforms (w >> 11 + 1/2) / 2**53, in Python."""
    return [((int(w) >> 11) + 0.5) / 2**53 for w in words]


def fresh_philox_normals(seed, purpose, context, row_start, row_stop, width):
    """row_normals rebuilt from a Philox constructed for the call: value i of
    the draw is word row_start * width + i of the key's stream."""
    first = row_start * width
    bg = Philox(key=rng.philox_key(seed, purpose, context),
                counter=first // 4)
    words = bg.random_raw(first % 4 + (row_stop - row_start) * width)
    uniforms = open_uniforms(words[first % 4:])
    return ndtri(np.array(uniforms).reshape(row_stop - row_start, width))


def per_row_block_normals(seed, purpose, context, row_start, row_stop, width):
    """The layout in which row r starts on counter block r * ceil(width / 4)
    and reads its first `width` words."""
    key = rng.philox_key(seed, purpose, context)
    blocks = -(-width // 4)
    uniforms = [open_uniforms(Philox(key=key, counter=row * blocks)
                              .random_raw(width))
                for row in range(row_start, row_stop)]
    return ndtri(np.array(uniforms).reshape(row_stop - row_start, width))


# (seed, purpose, context, row_start, row_stop, width) of draws that differ
# in every field from their neighbours
DRAWS = [(seed, purpose, context, start, start + rows, width)
         for seed, purpose, context, start, rows, width in [
             (0, rng.PURPOSE_STEP, 0, 0, 1, 1),
             (2024, rng.PURPOSE_PRIOR, 9, 37, 24, 5),
             (2**64 - 1, rng.PURPOSE_STEP, 99, 2**40, 7, 16),
             (7, rng.PURPOSE_MC, 3, 1, 300, 1),
             (0, rng.PURPOSE_STEP, 1, 5, 2, 5),
             (2024, rng.PURPOSE_STEP, 9, 36, 26, 16),
             (13, rng.PURPOSE_FORWARD, 2**63, 10**6, 33, 5),
             (2**32, rng.PURPOSE_DATA, 0, 3, 64, 1)]]


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

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 16, 17])
    def test_matches_independent_rebuild(self, width):
        # value (r, j) is word r * width + j of the key's stream, read from a
        # Philox built at counter block (row_start * width) // 4; each word
        # becomes the 53-bit open-interval uniform (w >> 11 + 1/2) / 2**53
        # and then scipy's ndtri.  Starting at row 37 puts the first word
        # mid-block at every width that is not a multiple of 4.
        draw = (2024, rng.PURPOSE_STEP, 9, 37, 61, width)
        assert ((37 * width) % 4 == 0) == (width % 4 == 0)
        got = rng.row_normals(*draw)
        assert got.tobytes() == fresh_philox_normals(*draw).tobytes()

    @pytest.mark.parametrize("width", [4, 8, 16])
    @pytest.mark.parametrize("row_start,rows", [(0, 1), (37, 24),
                                                (2**40, 7)])
    def test_block_multiple_widths_keep_per_row_block_bits(
            self, width, row_start, rows):
        # at widths that are a multiple of 4 each row starts on a block of
        # its own, so the draws are those of the layout that gave every row
        # ceil(width / 4) whole blocks (the D = 16 mixture sampler's noise)
        draw = (2024, rng.PURPOSE_STEP, 9, row_start, row_start + rows, width)
        got = rng.row_normals(*draw)
        assert got.tobytes() == per_row_block_normals(*draw).tobytes()

    @pytest.mark.parametrize("draw", DRAWS + [
        (5, rng.PURPOSE_STEP, 1, 3, 9, 2), (5, rng.PURPOSE_STEP, 1, 1, 6, 3)])
    def test_no_word_goes_unused(self, draw):
        # a call generates only the blocks that hold its words: this
        # thread's Philox ends ceil((first % 4 + rows * width) / 4) blocks
        # past block first // 4, where first = row_start * width
        _, _, _, row_start, row_stop, width = draw
        first = row_start * width
        rng.row_normals(*draw)
        lo, hi, _, _ = map(int, rng._local.philox.state["state"]["counter"])
        used = -(-(first % 4 + (row_stop - row_start) * width) // 4)
        assert (hi << 64) + lo == first // 4 + used

    def test_interleaved_calls_match_fresh_generators(self):
        # one thread's generator is re-keyed for every call, so calls in
        # any order, after a draw that leaves its buffer part-read and a
        # 32-bit half cached, give the fresh generator's bits
        for order in (DRAWS, DRAWS[::-1], DRAWS[1::2] + DRAWS[::2]):
            for draw in order:
                dirty = rng._rekeyed(rng.philox_key(1, 2), 3)
                dirty.random_raw(2)
                Generator(dirty).integers(0, 2**32, dtype=np.uint32)
                got = rng.row_normals(*draw)
                assert got.tobytes() == fresh_philox_normals(*draw).tobytes()

    def test_concurrent_threads_match_one_thread(self):
        # four threads (more than the cores of a small host) drawing at
        # once, each on its own generator, give the one-thread bits
        expected = [rng.row_normals(*draw).tobytes() for draw in DRAWS]
        results, errors = {}, []
        start = threading.Barrier(4)

        def worker(k):
            try:
                start.wait(timeout=30)
                for rep in range(20):
                    for i in range(len(DRAWS)):
                        j = (i + k + rep) % len(DRAWS)
                        got = rng.row_normals(*DRAWS[j]).tobytes()
                        results.setdefault((k, j), set()).add(got)
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 4 * len(DRAWS)
        assert all(got == {expected[j]} for (_, j), got in results.items())

    @pytest.mark.parametrize("threads", [1, 3])
    def test_sample_builds_at_most_one_generator_per_worker(
            self, monkeypatch, threads):
        built = []

        def counting_philox(*args, **kwargs):
            built.append(threading.get_ident())
            return Philox(*args, **kwargs)

        monkeypatch.setattr(rng, "Philox", counting_philox)
        vp = make_schedule("VP")
        gmm = single_gaussian([0.5, -0.5], [[1.0, 0.3], [0.3, 0.6]])
        cfg = SamplerConfig(steps=100, seed=3)
        # 3 workers at threads=3: 3 x 8192 state values a step
        sample(vp, oracle_score_model(gmm), cfg, n=12288, d=2,
               threads=threads)
        assert len(built) <= threads
        assert len(set(built)) == len(built)

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
        # a row wider than a block's 4 words spans blocks, and at widths
        # that are not a multiple of 4 a block holds the end of one row and
        # the start of the next
        x = rng.row_normals(3, rng.PURPOSE_STEP, 2, 0, 50, 7)
        assert x.shape == (50, 7)
        y = rng.row_normals(3, rng.PURPOSE_STEP, 2, 20, 30, 7)
        assert np.array_equal(x[20:30], y)

    def test_standard_normal_statistics(self):
        x = rng.row_normals(0, rng.PURPOSE_MC, 0, 0, 200000, 1).ravel()
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("start,stop,width", [(-1, 2, 1), (5, 4, 1),
                                                  (0, 2, 0)])
    def test_bad_range_raises(self, start, stop, width):
        with pytest.raises(ValueError, match="row_start"):
            rng.row_normals(0, rng.PURPOSE_STEP, 0, start, stop, width)

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
