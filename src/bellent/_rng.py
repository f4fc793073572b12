"""Counter-based random streams for reproducible parallel sampling.

One master seed; every use site derives its own substream from a purpose tag,
and individual samples are addressed by index through the Philox counter.  A
worker that owns samples [lo, hi) draws exactly the same numbers for sample i
as any other partitioning would, so results are independent of scheduling.

Philox details that this module relies on (verified empirically): the
generator emits 64-bit words in blocks of 4 per counter tick, and a Philox
whose state is set to key k and counter d, with an empty buffer, emits the
words of ``Philox(key=k)`` after ``advance(d)``: it skips exactly d ticks,
i.e. 4*d words.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from numpy.random import Philox

from .errors import ParameterError

_WORDS_PER_BLOCK = 4
_WORD = (1 << 64) - 1
# half the 2^-53 spacing of the doubles that Generator.random draws
_HALF_STEP = 2.0 ** -54


class Workspace:
    """Named float64 arrays, and one Philox with its Generator, that the
    sampling hot path reuses from call to call.

    A piece of samples that draws its directions (`bloch_directions`) and
    evaluates its kernel (`bell.batch_i_max`) in one workspace allocates
    nothing anew, so the hot loop takes no page faults, and holds one buffer
    per lifetime: "draws" holds the draws, then the norm pass's squares, then
    `bell.correlators`' term, then `bell._block_max`'s product, each spent
    before the next is written.  An array is a view into a flat buffer that
    only grows, so a shorter block, or the other party count, reuses the
    buffer of a longer one; its size is set by the longest block drawn in it,
    which `nlfrac` keeps to one `bell._SUB_BLOCK` piece.  The Philox is moved
    to each substream by setting its state, which costs a third of building
    one.  A draw that starts where the last one ended, as each piece of a
    one-worker run does, takes the Philox as it stands: every draw consumes
    whole counter blocks, so its buffer is empty there.  Results built in a
    workspace are views into it, valid until its next use; a workspace serves
    one thread at a time.
    """

    def __init__(self):
        self._flat = {}
        self._philox = Philox(0)
        self._generator = np.random.Generator(self._philox)
        # (seed, tag, counter block) where the Philox stands with an empty
        # buffer, or None when that is not known
        self._at = None

    @property
    def philox(self) -> Philox:
        """The Philox that `random` draws with; after a caller draws from it,
        the next `random` sets its state."""
        self._at = None
        return self._philox

    def random(self, seed: int, tag: str, block: int, out: np.ndarray) -> None:
        """Fill out with `Generator.random` doubles from counter block `block`
        of the (seed, tag) substream; out.size is a whole number of blocks."""
        if self._at != (seed, tag, block):
            _philox(seed, tag, block, self._philox)
        self._at = None  # not known until the draw completes
        self._generator.random(out=out)
        self._at = (seed, tag, block + out.size // _WORDS_PER_BLOCK)

    def array(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.zeros(size)
        return flat[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes held by the arrays."""
        return sum(flat.nbytes for flat in self._flat.values())


def substream_key(seed: int, tag: str) -> int:
    """128-bit Philox key for (seed, tag), via blake2b; the seed is in [0, 2**128)."""
    seed = int(seed)
    if not 0 <= seed < 2 ** 128:  # it is hashed as 16 unsigned bytes
        raise ParameterError(f"seed must be in [0, 2**128), got {seed}")
    h = hashlib.blake2b(digest_size=16)
    h.update(tag.encode("utf-8"))
    h.update(b"\x00")
    h.update(seed.to_bytes(16, "little", signed=False))
    return int.from_bytes(h.digest(), "little")


def blocks_per_sample(words: int) -> int:
    return -(-words // _WORDS_PER_BLOCK)


def draw_width(words: int) -> int:
    """Words drawn per sample, surplus included: whole counter blocks."""
    return blocks_per_sample(words) * _WORDS_PER_BLOCK


def _philox(seed: int, tag: str, block: int, ph: Philox | None = None) -> Philox:
    """The substream for (seed, tag), positioned at counter block `block`:
    `ph`, or a new Philox, with its state set.

    Its words are those of `Philox(key=substream_key(seed, tag))` advanced by
    `block` counter blocks (a 256-bit counter), with an empty output buffer.
    """
    key = substream_key(seed, tag)
    if ph is None:
        ph = Philox(0)
    ph.state = {"bit_generator": "Philox",
                "state": {"counter": np.array([block >> s & _WORD for s in (0, 64, 128, 192)],
                                              dtype=np.uint64),
                          "key": np.array([key & _WORD, key >> 64], dtype=np.uint64)},
                "buffer": np.zeros(_WORDS_PER_BLOCK, dtype=np.uint64),
                "buffer_pos": _WORDS_PER_BLOCK, "has_uint32": 0, "uinteger": 0}
    return ph


def raw_words(seed: int, tag: str, start: int, count: int, words: int) -> np.ndarray:
    """uint64 array (count, words): the words assigned to samples start..start+count.

    Each sample owns ceil(words/4) counter blocks; surplus words in the last
    block are discarded so consumption per sample is fixed.
    """
    width = draw_width(words)
    raw = _philox(seed, tag, start * blocks_per_sample(words)).random_raw(count * width)
    return raw.reshape(count, width)[:, :words]


def uniforms(seed: int, tag: str, start: int, count: int, words: int,
             ws: Workspace | None = None) -> np.ndarray:
    """Uniform doubles strictly inside (0, 1), one per word: (k + 1/2) 2^-53
    for the top 53 bits k of the word, shape (count, words).  Every Monte
    Carlo double is drawn here, and none is 0 or 1, so `ndtri` of it is finite.

    Drawn by `ws.random` straight into `ws.array("draws")`, shape
    (count, draw_width(words)), that the result is a view of; a fresh
    workspace when none is given.
    """
    if ws is None:
        ws = Workspace()
    out = ws.array("draws", (count, draw_width(words)))
    # Generator.random gives k 2^-53 from the same words as raw_words, one
    # word per double, so adding 2^-54 rounds exactly as (k + 1/2) 2^-53
    ws.random(seed, tag, start * blocks_per_sample(words), out)
    out += _HALF_STEP
    return out[:, :words]


def bloch_tag(n_parties: int) -> str:
    """The substream tag of n parties' Haar settings, on every route that replays them."""
    return f"bloch{n_parties}"


def bloch_directions(seed: int, tag: str, start: int, count: int, n_parties: int,
                     ws: Workspace | None = None) -> np.ndarray:
    """Uniform unit vectors on the sphere, shape (count, n_parties, 2, 3).

    Two measurement directions per party, 3 standard normals per direction
    by inverse CDF, one word per normal, so each sample consumes 6*n_parties
    words (rounded up to whole counter blocks).  `ndtri` reads the
    `uniforms` of those words transposed and writes the normals sample
    innermost into `ws.array("dirs")`, shape (n_parties, 2, 3, count); each
    direction is divided by its norm, summed as (x^2 + y^2) + z^2 from
    squares that one call writes into the draws' buffer.  The result is the
    dirs array seen with the sample axis first (`np.moveaxis`), the layout
    that `bell.correlators` reads.  A loop that passes one workspace
    allocates nothing per call.
    """
    if ws is None:
        ws = Workspace()
    # imported here, not at module level: it costs every CLI start about 0.25 s
    from scipy.special import ndtri
    words = n_parties * 2 * 3
    z = ws.array("dirs", (n_parties, 2, 3, count))
    ndtri(uniforms(seed, tag, start, count, words, ws).T, out=z.reshape(words, count))
    # the draws are consumed, so their buffer holds the squares; the norm is
    # the sum of np.linalg.norm over the components, in the same order, and
    # ndtri never returns exactly 0 on (0,1) grid points, so it is positive
    squares = np.multiply(z, z, out=ws.array("draws", z.shape))
    norm = squares[:, :, 0]
    norm += squares[:, :, 1]
    norm += squares[:, :, 2]
    z /= np.sqrt(norm, out=norm)[:, :, None]
    return np.moveaxis(z, -1, 0)


def generator(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """A numpy Generator on the (seed, tag, index) substream.

    For consumers whose draw count per use is variable (e.g. Poisson
    resampling); index picks a fresh stream per trial rather than a counter
    offset within one stream.
    """
    return np.random.Generator(_philox(seed, f"{tag}#{index}", 0))
