"""Named, deterministic random-number streams.

Every stochastic component in the simulator (each network link, each
trading bot, each clock) draws from its own named substream derived from
a single master seed.  Two properties follow:

1. **Reproducibility** -- the same master seed yields byte-identical
   runs, independent of the order in which components are constructed.
2. **Isolation** -- adding a new component (a new link, say) does not
   perturb the draws seen by existing components, because streams are
   keyed by stable names rather than by construction order.

Streams are ``numpy.random.Generator`` instances seeded via
``numpy.random.SeedSequence`` spawned with a stable hash of the stream
name.

:class:`BufferedStream` is the hot-path fast layer: a drop-in wrapper
over a ``Generator`` that serves scalar draws from chunked bulk draws
while remaining **bit-for-bit identical** to calling the generator one
scalar at a time (see the class docstring for how).
:func:`integers_draw` is the scalar counterpart for bounded integer
draws: a cheaper ``Generator.integers(low, high)`` with the same values
and the same generator state afterwards.  The same
name-to-entropy keying used for streams is exposed as
:func:`derive_seed` for the sweep runner (:mod:`repro.exp`), which
needs per-task seeds that depend only on the task's identity, never on
enumeration or execution order.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Optional, Tuple

import numpy as np


def _name_to_entropy(name: str) -> int:
    """Map a stream name to a stable 128-bit integer.

    Python's builtin ``hash`` is salted per-process, so we use BLAKE2
    for a digest that is stable across runs and machines.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=16).digest()
    return int.from_bytes(digest, "big")


def derive_seed(master_seed: int, key: str) -> int:
    """A 63-bit seed derived from ``(master_seed, key)``.

    Keyed exactly like :meth:`RngRegistry.stream` substreams -- via
    ``SeedSequence([master_seed, blake2(key)])`` -- so the result
    depends only on the pair's *identity*: two processes (or two
    worker pools with different job counts) deriving the seed for the
    same key always agree, and adding new keys never perturbs existing
    ones.  Used by :mod:`repro.exp` to give every sweep task its own
    config seed.
    """
    if not isinstance(master_seed, int):
        raise TypeError(f"master_seed must be an int, got {type(master_seed).__name__}")
    seq = np.random.SeedSequence([master_seed, _name_to_entropy(key)])
    return int(seq.generate_state(1, np.uint64)[0]) >> 1


_UINT32_SPAN = 1 << 32
_LOW_WORD = _UINT32_SPAN - 1


def integers_draw(generator: np.random.Generator) -> Callable[[int, int], int]:
    """A fast scalar ``draw(low, high)`` equal to ``int(generator.integers(low, high))``.

    ``Generator.integers`` pays ~1.7 us of argument handling per scalar
    call.  The returned function reproduces numpy's algorithm for the
    default int64 dtype with ``1 <= high - low <= 2**32`` -- the
    ``random_bounded_uint64_fill`` branch for 32-bit ranges -- on the
    bit generator's own ``next_uint32`` (its public ``ctypes``
    interface), so values *and* the generator state afterwards are
    identical to the numpy call, including the half-word that PCG64
    buffers between 32-bit draws:

    - span 1 returns ``low`` and consumes nothing;
    - otherwise Lemire's multiply-shift with rejection: ``m =
      next_uint32() * span``; while the low word of ``m`` is below
      ``2**32 % span``, draw again; return ``low + (m >> 32)``.  For
      span ``2**32`` this is ``low + next_uint32()``, numpy's special
      case for that span.

    Any other span raises ``ValueError``.  The draw takes no lock, so
    the generator must not be shared across threads.  The function
    keeps a reference to ``generator`` (as ``draw.generator``) so the
    state address it writes through stays valid.
    """
    interface = generator.bit_generator.ctypes
    next_uint32 = interface.next_uint32
    address = interface.state_address

    def draw(low: int, high: int) -> int:
        span = high - low
        if span == 1:
            return low
        if not 1 < span <= _UINT32_SPAN:
            raise ValueError(f"span high - low must be in [1, 2**32], got {span}")
        m = next_uint32(address) * span
        if m & _LOW_WORD < span:
            threshold = _UINT32_SPAN % span
            while m & _LOW_WORD < threshold:
                m = next_uint32(address) * span
        return low + (m >> 32)

    draw.generator = generator
    return draw


class RngRegistry:
    """Factory and cache for named random streams.

    Parameters
    ----------
    master_seed:
        The seed controlling the whole simulation.  Streams produced by
        registries with different master seeds are unrelated.

    Examples
    --------
    >>> rngs = RngRegistry(7)
    >>> link_rng = rngs.stream("link:gw0->engine")
    >>> bot_rng = rngs.stream("trader:42")
    >>> rngs.stream("link:gw0->engine") is link_rng
    True
    """

    def __init__(self, master_seed: int) -> None:
        if not isinstance(master_seed, int):
            raise TypeError(f"master_seed must be an int, got {type(master_seed).__name__}")
        self.master_seed = master_seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            seq = np.random.SeedSequence([self.master_seed, _name_to_entropy(name)])
            generator = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = generator
        return generator

    def fork(self, salt: int) -> "RngRegistry":
        """Return an independent registry (e.g. for a repeated trial).

        The fork's streams are unrelated to the parent's even for equal
        stream names, which is what repeated-trial benchmarks need.
        """
        return RngRegistry((self.master_seed * 1_000_003 + salt) & (2**63 - 1))

    def __repr__(self) -> str:
        return f"RngRegistry(master_seed={self.master_seed}, streams={len(self._streams)})"


class BufferedStream:
    """Chunked scalar draws, bit-for-bit identical to the bare generator.

    numpy guarantees that a bulk draw (``generator.gamma(shape, scale,
    size=n)``) consumes the underlying bit stream exactly like ``n``
    scalar calls with the same arguments, producing the same values and
    leaving the generator in the same state.  A run of same-signature
    scalar draws -- the shape of every per-link latency stream -- can
    therefore be served from a prefetched array, replacing ``n`` numpy
    scalar-call overheads with one vectorized call plus ``n`` array
    indexings.

    Exactness across *mixed* draw kinds is preserved by construction:

    - A chunk is only prefetched after :attr:`min_run` consecutive
      draws of one signature (kind + distribution arguments), so
      streams that interleave kinds -- e.g. the fused cloud-link model
      drawing ``gamma`` then ``random`` per message -- stay on the
      plain scalar path and pay one tuple comparison per draw.
    - If the signature *does* change while a chunk is partially
      consumed, the wrapper rewinds: it restores the bit-generator
      state snapshotted before the bulk draw and replays the served
      draws scalar-by-scalar, leaving the generator exactly where
      all-scalar drawing would have -- then continues.  The sequence
      of returned values is identical in every case; only the cost
      profile changes.

    The wrapped generator must not be drawn from directly while a
    chunk is outstanding; call :meth:`flush` first to realign it.
    """

    __slots__ = ("generator", "chunk", "min_run", "_bit", "_sig", "_run", "_buf", "_pos",
                 "_n", "_state0")

    def __init__(self, generator: np.random.Generator, chunk: int = 256, min_run: int = 16) -> None:
        if chunk < 2:
            raise ValueError(f"chunk must be >= 2, got {chunk}")
        if min_run < 1:
            raise ValueError(f"min_run must be >= 1, got {min_run}")
        self.generator = generator
        self.chunk = chunk
        self.min_run = min_run
        self._bit = generator.bit_generator
        self._sig: Optional[Tuple] = None  # signature of the current same-kind run
        self._run = 0  # consecutive scalar draws of _sig (buffering engages at min_run)
        self._buf = None  # prefetched chunk (None = scalar mode)
        self._pos = 0
        self._n = 0
        self._state0 = None  # bit-generator state snapshotted before the chunk draw

    # ------------------------------------------------------------------
    # Draw kinds (the five scalar draws the simulator uses)
    # ------------------------------------------------------------------
    def standard_normal(self):
        return self._draw(("sn",))

    def random(self):
        return self._draw(("rnd",))

    def uniform(self, low: float = 0.0, high: float = 1.0):
        return self._draw(("uni", low, high))

    def gamma(self, shape: float, scale: float = 1.0):
        return self._draw(("gam", shape, scale))

    def integers(self, low: int, high: Optional[int] = None):
        if high is None:
            low, high = 0, low
        return self._draw(("int", low, high))

    # ------------------------------------------------------------------
    # Core machinery
    # ------------------------------------------------------------------
    def _scalar(self, sig):
        kind = sig[0]
        g = self.generator
        if kind == "gam":
            return g.gamma(sig[1], sig[2])
        if kind == "rnd":
            return g.random()
        if kind == "sn":
            return g.standard_normal()
        if kind == "int":
            return g.integers(sig[1], sig[2])
        return g.uniform(sig[1], sig[2])

    def _bulk(self, sig, n):
        kind = sig[0]
        g = self.generator
        if kind == "gam":
            return g.gamma(sig[1], sig[2], size=n)
        if kind == "rnd":
            return g.random(n)
        if kind == "sn":
            return g.standard_normal(n)
        if kind == "int":
            return g.integers(sig[1], sig[2], size=n)
        return g.uniform(sig[1], sig[2], size=n)

    def _draw(self, sig):
        buf = self._buf
        if buf is not None:
            if sig == self._sig:
                pos = self._pos
                if pos < self._n:
                    self._pos = pos + 1
                    return buf[pos]
                # Chunk fully consumed: the generator state already
                # equals the all-scalar state, so refill in place.
                self._state0 = self._bit.state
                buf = self._bulk(sig, self.chunk)
                self._buf = buf
                self._n = len(buf)
                self._pos = 1
                return buf[0]
            self.flush()
        if sig == self._sig:
            run = self._run + 1
            if run >= self.min_run:
                self._state0 = self._bit.state
                buf = self._bulk(sig, self.chunk)
                self._buf = buf
                self._n = len(buf)
                self._pos = 1
                self._run = 0
                return buf[0]
            self._run = run
        else:
            self._sig = sig
            self._run = 1
        return self._scalar(sig)

    def flush(self) -> None:
        """Realign the wrapped generator with the draws actually served.

        A partially-consumed chunk means the generator has advanced
        past the logical position; restore the pre-chunk snapshot and
        replay the served draws.  No-op in scalar mode.  Idempotent.
        """
        buf = self._buf
        if buf is None:
            return
        pos, n = self._pos, self._n
        self._buf = None
        self._run = 0
        if pos >= n:
            return  # fully consumed: states already coincide
        self._bit.state = self._state0
        sig = self._sig
        for _ in range(pos):
            self._scalar(sig)

    def __repr__(self) -> str:
        mode = f"buffered[{self._pos}/{self._n}]" if self._buf is not None else "scalar"
        return f"BufferedStream({self._sig}, {mode}, chunk={self.chunk})"
