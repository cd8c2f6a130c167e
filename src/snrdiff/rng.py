"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator whose 128-bit key is derived from ``(seed, purpose, *context)``
by a splitmix64 chain.  Two access patterns are provided:

* :func:`stream` — an ordinary ``numpy.random.Generator`` for routines that
  consume a single stream sequentially (data sampling, Monte Carlo
  estimators).  Deterministic given the key material.

* :func:`row_normals` — standard-normal draws addressed by *row*, used for
  per-trajectory noise, backward and forward.  Row ``i`` always reads the
  same words of the same keyed stream, so any partition of ``[row_start,
  row_stop)`` into chunks (threads, processes, whatever) reproduces
  identical values.  A draw of width ``w`` reads the key's stream as one
  run of 64-bit words, row after row: value ``(i, j)`` is word
  ``i * w + j``, and normals come from the inverse CDF so that exactly one
  word feeds one value.  One Philox counter block yields four words, so a
  draw starts at block ``first // 4``, where ``first = row_start * w``, and
  skips that block's first ``first % 4`` words; no other word goes unused,
  and a call of ``rows`` rows generates ``ceil((first % 4 + rows * w) / 4)``
  blocks.  At widths that are a multiple of 4 each row starts on a block
  of its own; at other widths rows share blocks.

A counter-based generator's whole state is its (key, counter) pair, plus
the buffer of words already drawn from the current block.  So
:func:`row_normals` keeps one ``Philox`` per thread and re-keys it on every
call through its ``state`` setter: key, counter, an empty buffer
(``buffer_pos = 4``) and no cached 32-bit half (``has_uint32 = 0``,
``uinteger = 0``), the state a fresh ``Philox(key=..., counter=...)`` starts
in.  No call can see what an earlier one drew, and the draws are the fresh
generator's bits.  Setting the state takes a few microseconds where
constructing a ``Philox`` takes about 20, and a 100-step sampler pass makes
one call per step.  Each generator lives as long as its thread, so
concurrent workers never share one, and what it holds is overwritten on
every call: it carries nothing from one call, or one run, to the next.

The inverse CDF is ``scipy.special.ndtri``, imported inside
:func:`row_normals` on first use so that importing the package loads no
scipy module (commands that draw no row noise, such as ``info`` and
``schedules``, never pay for it).  It stays scipy's rather than a numpy
port of the same Cephes rational approximation: such a port differed from
it on 258 of 4M inputs, because numpy's vectorized ``log`` does not round
like the C library's, and it took about six times as long per value.

Purpose tags keep independent uses of the same user seed from colliding.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.random import Generator, Philox

PURPOSE_PRIOR = 1
PURPOSE_STEP = 2
PURPOSE_FORWARD = 3
PURPOSE_DATA = 4
PURPOSE_MC = 5

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 update; returns (new_state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def philox_key(seed: int, *context: int) -> int:
    """Derive a 128-bit Philox key from a seed and integer context words."""
    state = int(seed) & _MASK64
    for word in context:
        state, _ = _splitmix64(state ^ (int(word) & _MASK64))
    state, lo = _splitmix64(state)
    _, hi = _splitmix64(state)
    return (hi << 64) | lo


def stream(seed: int, purpose: int, *context: int) -> Generator:
    """A sequential generator keyed by (seed, purpose, context)."""
    return Generator(Philox(key=philox_key(seed, purpose, *context)))


def _uniform_open(raw: np.ndarray) -> np.ndarray:
    # 53-bit mantissa, offset by half an ulp: strictly inside (0, 1).
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


_local = threading.local()


def _rekeyed(key: int, counter: int) -> Philox:
    """This thread's Philox, set to the state ``Philox(key=key,
    counter=counter)`` starts in."""
    try:
        bg = _local.philox
    except AttributeError:
        bg = _local.philox = Philox(key=0)
    bg.state = {"bit_generator": "Philox",
                "state": {"counter": (counter & _MASK64, counter >> 64, 0, 0),
                          "key": (key & _MASK64, key >> 64)},
                "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0}
    return bg


def row_normals(
    seed: int,
    purpose: int,
    context: int,
    row_start: int,
    row_stop: int,
    width: int,
) -> np.ndarray:
    """Standard normals for rows [row_start, row_stop), shape (rows, width).

    The value at (row, column) depends only on the key material and the
    absolute row index, never on how rows are batched.  It reads word
    ``row * width + column`` of the key's stream; the word w becomes the
    open-interval uniform (w >> 11 + 1/2) / 2**53 and then its inverse
    normal CDF.  The words come from this thread's generator, set for the
    call to the counter block holding the first one (see the module
    docstring), so they are those of a Philox constructed for it.
    """
    from scipy.special import ndtri  # deferred: see the module docstring

    row_start = int(row_start)
    rows = int(row_stop) - row_start
    if row_start < 0 or rows < 0 or width < 1:
        raise ValueError("need 0 <= row_start <= row_stop and width >= 1")
    if rows == 0:
        return np.empty((0, width))
    block, skip = divmod(row_start * width, 4)  # one block = 4 uint64 words
    bg = _rekeyed(philox_key(seed, purpose, context), block)
    words = bg.random_raw(skip + rows * width)[skip:]
    return ndtri(_uniform_open(words.reshape(rows, width)))
