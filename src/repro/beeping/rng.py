"""Deterministic randomness plumbing.

Experiments need reproducible trials: the same master seed must give the
same results regardless of process, trial ordering or parallelism.  We get
that with an explicit splitmix64-based *seed derivation* — every trial,
node or subsystem derives its own independent 64-bit seed from the master
seed plus a path of integers — instead of sharing one mutable RNG.

Two uniform-stream disciplines build on the derived seeds
(:data:`RNG_MODES`):

- ``"stream"`` — each derived seed boots a sequential generator
  (``random.Random`` or ``numpy.random.default_rng``) whose draws depend
  on everything drawn before them.  This is the original discipline; its
  byte streams are pinned by the golden-trace tests.
- ``"counter"`` — :func:`counter_uniforms` / :func:`uniform_block`: every
  uniform is a *pure function* of ``(seed, round, draw kind, lane)``,
  computed as one vectorised splitmix64 pass.  No generator objects, no
  sequential state — a whole ``(trials, n)`` block of a round's uniforms
  is one numpy call, any sub-block equals the matching slice of the full
  block, and skipping a draw never shifts any other draw.  This is the
  fleet/sweep hot-path discipline.
"""

from __future__ import annotations

from random import Random

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

#: The two uniform-stream disciplines the fast engines support.
RNG_MODES = ("stream", "counter")

#: Draw-kind indices for the counter discipline.  Each kind occupies its
#: own disjoint counter domain, so enabling or disabling one kind never
#: perturbs any other kind's block.  The beeping engines consume up to
#: three kinds per round — beep, then loss, then spurious — and the
#: message-passing engines three more: priority values
#: (Luby-permutation / Métivier), marking uniforms (Luby-probability)
#: and the one-shot ID permutation (local-minimum-id).  The application
#: kernels (:mod:`repro.engine.applications`) add a seventh domain,
#: ``DRAW_LAYER``: iterated-MIS applications derive the seed of each
#: inner MIS layer as ``counter_state(trial_seed, layer, DRAW_LAYER)``,
#: so layers are mutually independent and adding a layer never perturbs
#: any other draw.
DRAW_BEEP = 0
DRAW_LOSS = 1
DRAW_SPURIOUS = 2
DRAW_VALUE = 3
DRAW_MARK = 4
DRAW_IDS = 5
DRAW_LAYER = 6

#: Lane tables (``arange(n) * gamma``) for :func:`counter_uniforms`, keyed
#: by ``n``; experiments touch only a handful of sizes.
_LANES_CACHE: dict = {}


def _splitmix64(state: int) -> int:
    """One step of the splitmix64 output function (public-domain algorithm)."""
    z = (state + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _chain(master_seed: int, path) -> int:
    """The splitmix64 chain state after absorbing ``path``.

    Both :func:`derive_seed` and :func:`derive_seed_block` build on this —
    their bit-for-bit agreement depends on sharing it.
    """
    state = _splitmix64(master_seed & _MASK64)
    for index in path:
        state = _splitmix64(state ^ ((index & _MASK64) * _GOLDEN_GAMMA & _MASK64))
    return state


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a 64-bit seed from ``master_seed`` and a path of indices.

    The derivation is a splitmix64 chain, so distinct paths give
    (statistically) independent seeds and the mapping is stable across
    platforms and Python versions:

    >>> derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    True
    >>> derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    True
    """
    return _chain(master_seed, path)


def derive_seed_block(master_seed: int, *path: int, count: int, start: int = 0):
    """Seeds for paths ``path + (start,)`` .. ``path + (start+count-1,)``.

    This is the fleet engine's seed contract: entry ``t`` of the returned
    ``uint64`` array equals ``derive_seed(master_seed, *path, start + t)``
    bit for bit, so a trial-parallel batch consumes exactly the seeds a
    seed-by-seed loop would, and the two are interchangeable under one master
    seed.  ``start`` lets a *shard* of a larger batch derive only its own
    trailing-index window: concatenating shard blocks over consecutive
    offsets reproduces the unsharded block exactly, which is what makes a
    sharded sweep bit-identical to the sequential loop.

    Implemented as one vectorised splitmix64 step over the trailing index
    (numpy is imported lazily so the reference engine stays stdlib-only).

    >>> import numpy as np
    >>> seeds = derive_seed_block(42, 3, count=4)
    >>> all(int(seeds[t]) == derive_seed(42, 3, t) for t in range(4))
    True
    >>> shard = derive_seed_block(42, 3, count=2, start=2)
    >>> [int(s) for s in shard] == [int(s) for s in seeds[2:]]
    True
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    import numpy as np

    state = _chain(master_seed, path)
    gamma = np.uint64(_GOLDEN_GAMMA)
    trailing = np.arange(start, start + count, dtype=np.uint64)
    z = (np.uint64(state) ^ (trailing * gamma)) + gamma
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def seed_array(seeds):
    """``seeds`` as a ``uint64`` numpy array (values taken mod 2**64).

    Accepts a scalar, any integer-dtype array, or a sequence of Python
    ints (including values at or above 2**63, which object arrays would
    otherwise mishandle).  Signed inputs wrap modulo 2**64, matching the
    masking every derivation function applies.
    """
    import numpy as np

    if isinstance(seeds, np.ndarray):
        if seeds.dtype == np.uint64:
            return seeds
        if seeds.dtype.kind in "iu":
            return seeds.astype(np.uint64)
        seeds = seeds.tolist()
    if isinstance(seeds, (int, np.integer)):
        return np.asarray(int(seeds) & _MASK64, dtype=np.uint64)
    # A (possibly nested) sequence of Python ints: go through an object
    # array so values in [2**63, 2**64) never round through float64.
    arr = np.asarray(seeds, dtype=object)
    flat = [int(value) & _MASK64 for value in arr.reshape(-1)]
    return np.asarray(flat, dtype=np.uint64).reshape(arr.shape)


def stream_generators(seeds):
    """One sequential ``numpy`` generator per seed, in seed order.

    The ``"stream"`` rng mode boots exactly one ``default_rng`` per trial
    and every engine must consume the streams in the identical per-round
    order; centralising the boot keeps the fleet engines' generator lists
    byte-identical by construction (same seeds, same PCG64 states) rather
    than by convention.

    >>> gens = stream_generators([1, 2])
    >>> import numpy as np
    >>> bool(np.array_equal(gens[0].random(3),
    ...                     np.random.default_rng(1).random(3)))
    True
    """
    import numpy as np

    return [np.random.default_rng(int(seed)) for seed in seeds]


def counter_uniforms(seeds, round_index: int, draw_kind: int, n: int):
    """Stateless uniforms in ``[0, 1)``, shape ``np.shape(seeds) + (n,)``.

    The counter discipline: entry ``(..., v)`` is a pure function of the
    corresponding seed and ``(round_index, draw_kind, v)`` — the seed
    absorbs the round and the draw kind with the same vectorised
    splitmix64 step :func:`derive_seed_block` uses for trailing indices,
    then fans out over the ``n`` lanes in one pass.  Because nothing is
    sequential, any subset of seeds yields exactly the matching rows of
    the full block, and the uniforms for one ``draw_kind`` are unaffected
    by whether any other kind is ever drawn.

    Uniforms are the top 53 bits of the mixed counter scaled by ``2^-53``
    (the standard double-precision mapping), so values are exactly
    representable and strictly below 1.  ``round_index`` and ``draw_kind``
    may be arbitrarily large; they are absorbed modulo 2**64.

    >>> import numpy as np
    >>> block = counter_uniforms([1, 2], 0, DRAW_BEEP, 3)
    >>> block.shape
    (2, 3)
    >>> bool(np.all((block >= 0.0) & (block < 1.0)))
    True
    >>> np.array_equal(counter_uniforms(2, 0, DRAW_BEEP, 3), block[1])
    True
    """
    return _finish_lanes(_absorbed_lanes(seeds, round_index, draw_kind, n))


def counter_values(seeds, round_index: int, draw_kind: int, n: int):
    """Stateless full-width values, shape ``np.shape(seeds) + (n,)``.

    The 64-bit sibling of :func:`counter_uniforms`: entry ``(..., v)`` is
    the complete mixed counter word — a pure function of the seed and
    ``(round_index, draw_kind, v)`` — before the top-53-bit truncation
    that turns it into a uniform.  The two are locked together bit for
    bit::

        counter_uniforms(...) == (counter_values(...) >> 11) * 2.0 ** -53

    Message-passing kernels draw their priority values here: Métivier's
    bit-by-bit accounting needs genuine 64-bit value strings (the
    reference implementation reveals 64-bit integers), and uint64
    comparisons avoid any float rounding question in the neighbour
    reductions.

    >>> import numpy as np
    >>> values = counter_values([1, 2], 0, DRAW_VALUE, 3)
    >>> uniforms = counter_uniforms([1, 2], 0, DRAW_VALUE, 3)
    >>> bool(np.all((values >> np.uint64(11)) * 2.0 ** -53 == uniforms))
    True
    """
    return _mix_lanes(_absorbed_lanes(seeds, round_index, draw_kind, n))


def _absorbed_lanes(seeds, round_index, draw_kind, n: int):
    """The fresh ``state ^ lane`` array both counter fabrics mix from.

    One shared implementation of the absorb-and-fan-out step keeps
    :func:`counter_uniforms` and :func:`counter_values` locked together
    bit for bit (the documented ``uniforms == (values >> 11) * 2^-53``
    relation) — they differ only in the finisher applied to this array.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    import numpy as np

    state = counter_state(seeds, round_index, draw_kind)
    lanes = _LANES_CACHE.get(n)
    if lanes is None:
        # Tiny cache: experiments use a handful of distinct n values, and
        # the lane table is the only per-call O(n) setup.
        lanes = np.arange(n, dtype=np.uint64) * np.uint64(_GOLDEN_GAMMA)
        _LANES_CACHE[n] = lanes
    return state[..., np.newaxis] ^ lanes


def counter_state(seeds, round_index, draw_kind):
    """The per-seed counter state after absorbing ``(round, kind)``.

    ``counter_uniforms`` is ``_finish_lanes(state ^ lane)`` over the lane
    table; exposing the absorbed state lets sparse consumers (the armada
    frontier) evaluate single ``(seed, node)`` entries via
    :func:`counter_uniforms_at` without materialising whole rows.

    ``round_index`` (like ``draw_kind``) may be an int or an integer
    array; arrays broadcast against ``seeds``, so e.g. a ``(B, 1)`` round
    column yields the ``(B, len(seeds))`` state block of ``B`` future
    rounds in one call — statelessness makes look-ahead free, and hot
    loops use it to amortise the absorb overhead across rounds.
    """
    import numpy as np

    gamma = np.uint64(_GOLDEN_GAMMA)
    m1 = np.uint64(_MIX_1)
    m2 = np.uint64(_MIX_2)

    def absorb(state, index):
        z = (state ^ (seed_array(index) * gamma)) + gamma
        z = (z ^ (z >> np.uint64(30))) * m1
        z = (z ^ (z >> np.uint64(27))) * m2
        return z ^ (z >> np.uint64(31))

    # uint64 wraparound is the point of the mix; numpy warns on scalar
    # (0-d) overflow even though array ops wrap silently.
    with np.errstate(over="ignore"):
        return absorb(absorb(seed_array(seeds), round_index), draw_kind)


def counter_uniforms_at(states, lane_indices):
    """Uniforms at selected ``(state, lane)`` pairs, elementwise.

    ``states`` are :func:`counter_state` values and ``lane_indices`` node
    indices of matching shape; entry ``i`` equals
    ``counter_uniforms(seed_i, round, kind, n)[lane_indices[i]]`` bit for
    bit.  This is the sparse access path of the counter fabric: when only
    a few lanes of a block are needed (the armada's frontier phase), cost
    scales with the number of entries instead of ``trials * n``.
    """
    import numpy as np

    lanes = lane_indices.astype(np.uint64) * np.uint64(_GOLDEN_GAMMA)
    return _finish_lanes(np.asarray(states, dtype=np.uint64) ^ lanes)


def _mix_lanes(z):
    """The shared lane mixer: the full splitmix64 output word per lane.

    ``z`` must be a *fresh* uint64 array holding ``state ^ (lane_index *
    gamma)``; it is consumed destructively.  This is the hot path (the
    fleet calls it every round for whole blocks), so it mixes in place —
    one further allocation total.
    """
    import numpy as np

    z += np.uint64(_GOLDEN_GAMMA)
    scratch = z >> np.uint64(30)
    z ^= scratch
    z *= np.uint64(_MIX_1)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX_2)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def _finish_lanes(z):
    """Mixed lanes scaled to uniforms: top 53 bits times ``2^-53``."""
    import numpy as np

    z = _mix_lanes(z)
    z >>= np.uint64(11)
    # uint64 -> float64 conversion of a 53-bit value is exact, and the
    # power-of-two scale is exact, so this single fused pass equals
    # astype-then-multiply bit for bit.
    return z * (2.0 ** -53)


def uniform_block(
    master_seed: int,
    *path: int,
    round_index: int,
    draw_kind: int,
    count: int,
    n: int,
):
    """One round's uniforms for a whole trial block: ``(count, n)`` float64.

    Row ``t`` equals ``counter_uniforms(derive_seed(master_seed, *path,
    t), round_index, draw_kind, n)`` bit for bit, so the block is the
    counter-mode analogue of :func:`derive_seed_block` —

    >>> import numpy as np
    >>> block = uniform_block(7, 3, round_index=2, draw_kind=DRAW_BEEP,
    ...                       count=6, n=4)
    >>> row = counter_uniforms(derive_seed(7, 3, 4), 2, DRAW_BEEP, 4)
    >>> np.array_equal(block[4], row)
    True
    """
    return counter_uniforms(
        derive_seed_block(master_seed, *path, count=count),
        round_index,
        draw_kind,
        n,
    )


def spawn_rng(master_seed: int, *path: int) -> Random:
    """A fresh :class:`random.Random` seeded by :func:`derive_seed`."""
    return Random(derive_seed(master_seed, *path))


class RngStream:
    """A factory of independent child RNGs rooted at one master seed.

    >>> stream = RngStream(7)
    >>> trial_rng = stream.child(0)       # rng for trial 0
    >>> same = stream.child(0)
    >>> trial_rng.random() == same.random()
    True
    """

    def __init__(self, master_seed: int) -> None:
        self._master_seed = master_seed & _MASK64

    @property
    def master_seed(self) -> int:
        """The 64-bit master seed of this stream."""
        return self._master_seed

    def child(self, *path: int) -> Random:
        """An independent RNG for the given derivation path."""
        return spawn_rng(self._master_seed, *path)
