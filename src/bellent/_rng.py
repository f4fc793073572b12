"""Counter-based random streams for reproducible parallel sampling.

One master seed; every use site derives its own substream from a purpose tag,
and individual samples are addressed by index through the Philox counter.  A
worker that owns samples [lo, hi) draws exactly the same numbers for sample i
as any other partitioning would, so results are independent of scheduling.

Philox details that this module relies on (verified empirically): the
generator emits 64-bit words in blocks of 4 per counter tick, and
``Philox.advance(d)`` skips exactly d ticks, i.e. 4*d words.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

_WORDS_PER_BLOCK = 4
# half the 2^-53 spacing of the doubles that Generator.random draws
_HALF_STEP = 2.0 ** -54


def substream_key(seed: int, tag: str) -> int:
    """128-bit Philox key for (seed, tag), via blake2b."""
    h = hashlib.blake2b(digest_size=16)
    h.update(tag.encode("utf-8"))
    h.update(b"\x00")
    h.update(int(seed).to_bytes(16, "little", signed=False))
    return int.from_bytes(h.digest(), "little")


def blocks_per_sample(words: int) -> int:
    return -(-words // _WORDS_PER_BLOCK)


def draw_width(words: int) -> int:
    """Words drawn per sample, surplus included: whole counter blocks."""
    return blocks_per_sample(words) * _WORDS_PER_BLOCK


def _philox(seed: int, tag: str, start: int, words: int) -> Philox:
    """The substream for (seed, tag), positioned at sample `start`."""
    ph = Philox(key=substream_key(seed, tag))
    if start:
        ph.advance(start * blocks_per_sample(words))
    return ph


def raw_words(seed: int, tag: str, start: int, count: int, words: int) -> np.ndarray:
    """uint64 array (count, words): the words assigned to samples start..start+count.

    Each sample owns ceil(words/4) counter blocks; surplus words in the last
    block are discarded so consumption per sample is fixed.
    """
    width = draw_width(words)
    raw = _philox(seed, tag, start, words).random_raw(count * width)
    return raw.reshape(count, width)[:, :words]


def uniforms(seed: int, tag: str, start: int, count: int, words: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """Uniform doubles strictly inside (0, 1), one per word: (k + 1/2) 2^-53
    for the top 53 bits k of the word, shape (count, words).

    Drawn straight into `out`, a C-contiguous float64 array of shape
    (count, draw_width(words)) that the result is a view of; a new one when
    not given.
    """
    if out is None:
        out = np.empty((count, draw_width(words)))
    # Generator.random gives k 2^-53 from the same words as raw_words, one
    # word per double, so adding 2^-54 rounds exactly as (k + 1/2) 2^-53
    np.random.Generator(_philox(seed, tag, start, words)).random(out=out)
    out += _HALF_STEP
    return out[:, :words]


def normals(seed: int, tag: str, start: int, count: int, words: int,
            out: np.ndarray | None = None, draws: np.ndarray | None = None) -> np.ndarray:
    """Standard normals by inverse-CDF, exactly one word consumed per normal.

    Shape (count, words), in `out` when given; `draws` is the uniforms'
    buffer, as `out` of `uniforms`.
    """
    return ndtri(uniforms(seed, tag, start, count, words, draws), out=out)


def bloch_directions(seed: int, tag: str, start: int, count: int, n_parties: int,
                     out: np.ndarray | None = None,
                     draws: np.ndarray | None = None) -> np.ndarray:
    """Uniform unit vectors on the sphere, shape (count, n_parties, 2, 3).

    Two measurement directions per party, 3 normals per direction, so each
    sample consumes 6*n_parties words (rounded up to whole counter blocks).
    `out` is an optional C-contiguous result array and `draws` an optional
    buffer for the uniforms, as `out` of `uniforms`; a loop that passes both
    allocates nothing per call.
    """
    words = n_parties * 2 * 3
    if out is not None:
        out = out.reshape(count, words)
    z = normals(seed, tag, start, count, words, out, draws).reshape(count, n_parties, 2, 3)
    # ndtri has consumed the draws, so their buffer holds the squared norms
    if draws is None:
        draws = np.empty(2 * count * n_parties * 2)
    norm, term = draws.reshape(2, -1)[:, :count * n_parties * 2].reshape(2, count, n_parties, 2)
    # the same sum, in the same order, as np.linalg.norm over the last axis;
    # ndtri never returns exactly 0 on (0,1) grid points, so it is positive
    np.multiply(z[..., 0], z[..., 0], out=norm)
    norm += np.multiply(z[..., 1], z[..., 1], out=term)
    norm += np.multiply(z[..., 2], z[..., 2], out=term)
    z /= np.sqrt(norm, out=norm)[..., None]
    return z


def generator(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """A numpy Generator on the (seed, tag, index) substream.

    For consumers whose draw count per use is variable (e.g. Poisson
    resampling); index picks a fresh stream per trial rather than a counter
    offset within one stream.
    """
    key = substream_key(seed, f"{tag}#{index}")
    return np.random.Generator(Philox(key=key))
