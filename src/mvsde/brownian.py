"""Seeded Brownian increments on a uniform grid, with exact coarsening.

Reproducibility contract
------------------------
The increment for (particle ``i``, step ``k``, component ``r``) is a pure
function of ``(seed, i, k, r)``.  Each (seed, particle, chunk-of-steps) pair
owns a private Philox-4x64-10 counter stream: word ``w`` of the stream of
(purpose tag, particle, chunk) is word ``w mod 4`` of the block at counter
``[w // 4 + 1, chunk, particle, tag]``.  The key is what numpy makes of the
list ``[seed, 0x9E3779B97F4A7C15]``: for ``seed < 2**63`` the list passes
through float64, so the key is ``[float64(seed), 0x9E3779B97F4A8000]`` (seeds
in ``[2**53, 2**63)`` lose their low bits and can share streams); for larger
seeds it is ``[seed, 0x9E3779B97F4A7C15]`` exactly.  The 64-bit word at the
fixed in-stream position ``(k mod chunk) * m + r`` is mapped through the
inverse normal CDF,

    u = ((word >> 11) + 0.5) * 2**-53,    z = ndtri(u),

and scaled by ``sqrt(T / n_fine)``.  The map is computed as numpy's
``Generator.random`` plus ``2**-54``: ``random`` is ``(word >> 11) * 2**-53``
and a power-of-two scale commutes with the rounding of the added half, so
the bits are those of the formula.  No rejection sampling is involved, so a
value never depends on generation order, chunking, or on how many particles
or steps the surrounding grid has.  Bitwise reproducibility is per build (fixed numpy/scipy versions); the mapping above is part of this
module's contract.

Coarsening never re-sums previously coarsened values: every grid keeps a
handle on the root fine stream and derives its increments by one grouped
ascending-order sum over root increments.  ``coarsen(coarsen(g, a), b)``
therefore runs the exact same floating-point reduction as
``coarsen(g, a * b)`` and the results are bitwise identical.

Grids whose root stream holds at most ``2**26`` values are materialized in
memory; larger grids regenerate chunks from the counter stream on demand.
Either way a chunk is generated in particle slabs of doubles, which hold the
uniforms and then their normal values in place, and a coarsened view sums
each slab into its coarse steps as it is drawn, so temporaries grow neither
with N nor with the factor.  A call with enough work splits the particles
into contiguous bands (``bands.band_count``); each band draws its own rows
into a slab of ``_SLAB_WORDS // bands`` doubles, and a call has no more
bands than such slabs that hold a particle's row, so its slabs hold
``_SLAB_WORDS`` doubles in all (one row, if a row is wider).  Every value
is a function of its counter alone, so the bits do not depend on the
number of bands.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .bands import band_count, run_bands

_MASK64 = (1 << 64) - 1
_KEY_CONST = 0x9E3779B97F4A7C15  # second key word as passed to numpy (see above)
CHUNK_STEPS = 4096  # root steps per counter chunk, fixed for all grids
_MATERIALIZE_LIMIT = 1 << 26  # max root values kept in memory
_SLAB_WORDS = 1 << 20  # max doubles in the slabs of one generation call (8 MiB)

# purpose tags keep the increment, initial-normal and initial-uniform
# streams of one seed disjoint in counter space
_TAG_INCREMENTS = 0
_TAG_INIT_NORMAL = 1
_TAG_INIT_UNIFORM = 2


def derive_seed(seed: int, index: int) -> int:
    """Derive a decorrelated child seed (splitmix64 finalizer)."""
    z = (int(seed) + 0x9E3779B97F4A7C15 * (int(index) + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class _Streams:
    """One Philox generator re-keyed in place to each (particle, chunk) stream.

    Building a generator costs a SeedSequence draw that is then discarded;
    assigning a held state dict only rewrites the counter.  Each instance is
    owned by one call, or by one band of it.
    """

    def __init__(self, seed, tag):
        self._bg = np.random.Philox(
            counter=[0, 0, 0, tag], key=[int(seed) & _MASK64, _KEY_CONST]
        )
        # the state setter reads each word; from Python ints that costs half
        # of what numpy array items cost
        state = self._bg.state
        state["state"] = {k: v.tolist() for k, v in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        state["buffer_pos"] = 4  # empty buffer: the next draw computes a block
        self._state = state
        self._counter = state["state"]["counter"]
        self._tag = tag
        self._gen = np.random.Generator(self._bg)
        self._head = np.empty(3)  # words drawn before w0 in its Philox block

    def uniforms(self, particles, chunk, w0, out):
        """Fill out (float64, one C-contiguous row per particle) with the
        uniforms of words [w0, w0 + out.shape[1]) of the (particle, chunk)
        streams."""
        # numpy increments the counter before it computes a block, so
        # counter b yields the block holding stream words [4b, 4b + 4)
        b, head = divmod(w0, 4)
        for row, particle in zip(out, particles):
            self._counter[:] = (b, chunk, particle, self._tag)
            self._bg.state = self._state
            if head:
                self._gen.random(out=self._head[:head])
            self._gen.random(out=row)
        # strictly inside (0, 1), so ndtri stays finite
        out += 2.0**-54
        return out


def _add_terms(out, root, first, f):
    """Sum root increments into out's coarse steps of f root steps each.

    root[:, i] is root step first + i, counted from out's first root step.
    A coarse step's first term is assigned and the rest added, so calls must
    arrive in ascending root-step order."""
    for j in range(f):
        i = (j - first) % f  # first column of root that is term j
        if i >= root.shape[1]:
            continue
        terms = root[:, i::f, :]
        q = (first + i) // f
        if j == 0:
            out[:, q : q + terms.shape[1], :] = terms
        else:
            out[:, q : q + terms.shape[1], :] += terms


class PathGrid:
    """Brownian increments for N particles on a uniform mesh of [0, T].

    A grid with ``factor > 1`` is a coarsened view: it exposes
    ``n_fine // factor`` steps, each the ascending-order sum of ``factor``
    consecutive root increments.  All views of one root stream share the
    same seed and the same underlying paths.
    """

    def __init__(self, seed, n_fine, T, N, m, factor=1, root=None):
        self.seed = int(seed)
        self.n_fine = int(n_fine)
        self.T = float(T)
        self.N = int(N)
        self.m = int(m)
        self.factor = int(factor)
        self._root = root

    @property
    def n_steps(self) -> int:
        """Number of steps of this (possibly coarsened) grid."""
        return self.n_fine // self.factor

    @property
    def h(self) -> float:
        """Step size of this grid."""
        return self.T * self.factor / self.n_fine

    def _generate(self, k0, k1):
        """Increments for steps [k0, k1) drawn from the counter stream; each
        slab of root values is summed into its coarse steps as it is drawn."""
        f, m = self.factor, self.m
        r0, r1 = k0 * f, k1 * f  # root steps
        scale = np.sqrt(self.T / self.n_fine)
        out = np.empty((self.N, k1 - k0, m))
        first, last = r0 // CHUNK_STEPS, (r1 - 1) // CHUNK_STEPS
        width = min(r1 - r0, CHUNK_STEPS) * m
        bands = band_count(self.N * (r1 - r0) * m, min(self.N, _SLAB_WORDS // width))
        slab_len = _SLAB_WORDS // bands

        def band(p0, p1):
            streams = _Streams(self.seed, _TAG_INCREMENTS)
            # one slab buffer serves the band, sized for its widest chunk
            # span, so the allocator keeps no freed slabs resident
            slab = np.empty(min((p1 - p0) * width, max(width, slab_len)))
            for c in range(first, last + 1):
                lo = max(r0, c * CHUNK_STEPS)
                hi = min(r1, (c + 1) * CHUNK_STEPS)
                w0 = (lo - c * CHUNK_STEPS) * m
                w1 = (hi - c * CHUNK_STEPS) * m
                rows = max(1, slab_len // (w1 - w0))
                for s0 in range(p0, p1, rows):
                    s1 = min(p1, s0 + rows)
                    z = slab[: (s1 - s0) * (w1 - w0)].reshape(s1 - s0, w1 - w0)
                    streams.uniforms(range(s0, s1), c, w0, z)
                    ndtri(z, out=z)
                    z *= scale
                    _add_terms(out[s0:s1], z.reshape(s1 - s0, hi - lo, m), lo - r0, f)

        run_bands(self.N, bands, band)
        return out

    def increments_block(self, k0, k1):
        """Increments of THIS grid for its steps [k0, k1), shape (N, k1-k0, m).

        Coarse increments are grouped sums of root increments, accumulated in
        ascending root-step order.
        """
        if not 0 <= k0 <= k1 <= self.n_steps:
            raise ValueError(f"step range [{k0}, {k1}) outside [0, {self.n_steps}]")
        if self._root is None:
            return self._generate(k0, k1)
        f = self.factor
        fine = self._root[:, k0 * f : k1 * f, :]
        if f == 1:
            return fine
        out = np.empty((self.N, k1 - k0, self.m))
        _add_terms(out, fine, 0, f)
        return out


def generate(seed, n_fine, T, N, m, materialize=None) -> PathGrid:
    """Create a new root path grid of Normal(0, T/n_fine) increments.

    ``materialize`` overrides the default memory policy (root streams up to
    2**26 values are kept in memory, larger ones are regenerated on demand).
    """
    if int(n_fine) < 1:
        raise ValueError("n_fine must be a positive integer")
    if not T > 0:
        raise ValueError("horizon T must be positive")
    if int(N) < 1 or int(m) < 1:
        raise ValueError("N and m must be positive integers")
    grid = PathGrid(seed, n_fine, T, N, m)
    if materialize is None:
        materialize = int(N) * int(n_fine) * int(m) <= _MATERIALIZE_LIMIT
    if materialize:
        root = grid._generate(0, grid.n_fine)
        root.flags.writeable = False
        grid._root = root
    return grid


def coarsen(grid: PathGrid, factor: int) -> PathGrid:
    """View of `grid` with `factor` consecutive steps merged into one.

    `factor` must divide the grid's current step count.  The coarse grid
    shares the root stream, so repeated coarsening composes exactly.
    """
    factor = int(factor)
    if factor < 1:
        raise ValueError("coarsening factor must be a positive integer")
    if grid.n_steps % factor != 0:
        raise ValueError(
            f"factor {factor} does not divide the {grid.n_steps}-step grid"
        )
    return PathGrid(
        grid.seed,
        grid.n_fine,
        grid.T,
        grid.N,
        grid.m,
        factor=grid.factor * factor,
        root=grid._root,
    )


class InitStream:
    """Deterministic draw source handed to a model's initial sampler.

    Streams are keyed by (seed, purpose, particle), disjoint from the
    increment streams of the same seed, so initial data and Brownian paths
    are independent.
    """

    def __init__(self, seed, N, d):
        self.seed = int(seed)
        self.N = int(N)
        self.d = int(d)

    @property
    def shape(self):
        return (self.N, self.d)

    def _block(self, tag):
        return _Streams(self.seed, tag).uniforms(range(self.N), 0, 0, np.empty(self.shape))

    def normals(self):
        """Standard normal block of shape (N, d)."""
        u = self._block(_TAG_INIT_NORMAL)
        return ndtri(u, out=u)

    def uniforms(self):
        """Uniform(0, 1) block of shape (N, d)."""
        return self._block(_TAG_INIT_UNIFORM)
