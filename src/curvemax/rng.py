"""Deterministic random streams.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by (master_seed, stream_id).  Streams with distinct ids are
independent, and the same (seed, id) pair reproduces the same draws on any
platform numpy supports, which is what makes the CLI output byte-identical
across runs.  Indexed members of a stream are handed out only through the
named families in ``FAMILIES``, so no two consumers share a key.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Fixed stream ids, one per consumer.  New consumers append; never renumber.
STREAMS = {
    "ball-volume": 1,
    "quasi-triangle": 2,
    "kernel": 3,
    "sup-search": 4,
    "maxop": 5,
    "corpus": 6,
    "gram": 7,
}


class Family(NamedTuple):
    """Members of `stream` at substream index offset + (row-major position)."""

    stream: str
    offset: int
    shape: tuple


# Families on one stream occupy disjoint index ranges; never move one.
FAMILIES = {
    "closed-forms": Family("corpus", 2, (1,)),
    "profile-oracle": Family("corpus", 6, (1,)),
    "norm-axioms": Family("corpus", 100, (100,)),           # by d
    "osc-corpus": Family("corpus", 200, (100,)),            # by d
    "kernel-frequencies": Family("corpus", 300, (100,)),    # by d
    "profile-invariance": Family("corpus", 400, (100,)),    # by d
    "induction": Family("corpus", 700, (100,)),             # by d
    "kernel-draws": Family("kernel", 10, (100,)),           # by d
    "gram": Family("gram", 0, (65, 1000)),                  # by (d, set)
    "sup-search": Family("sup-search", 0, (65,)),           # by d
    "poisson-max": Family("maxop", 0, (1000,)),             # by scale
    "split-check": Family("maxop", 1000, (1000,)),          # by scale
}


def stream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Return the Philox generator for one (seed, stream) pair."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF,
                    stream_id & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def substream(master_seed: int, stream_id: int, index: int) -> np.random.Generator:
    """Indexed member of a stream (e.g. one per dimension in a sweep)."""
    return stream(master_seed, (stream_id << 32) ^ index)


def family_stream(master_seed: int, name: str, *member: int) -> np.random.Generator:
    """The generator of one member of a named family."""
    fam = FAMILIES[name]
    if len(member) != len(fam.shape) or not all(
            0 <= m < n for m, n in zip(member, fam.shape)):
        raise ValueError(f"member {member} outside stream family {name!r} "
                         f"of shape {fam.shape}")
    flat = 0
    for m, n in zip(member, fam.shape):
        flat = flat * n + m
    return substream(master_seed, STREAMS[fam.stream], fam.offset + flat)


def _family_text(name: str, fam: Family) -> str:
    return (f"{name}={STREAMS[fam.stream]}:{fam.offset}+i"
            f"<{'x'.join(map(str, fam.shape))}")


SEED_DERIVATION = (
    "rng=numpy Philox; stream(seed,id) keyed [seed,id]; "
    "substream(seed,id,i) keyed [seed,(id<<32)^i]; ids: "
    + " ".join(f"{name}={sid}" for name, sid in STREAMS.items())
    + "; families name=id:offset+i<shape (i row-major): "
    + " ".join(_family_text(name, fam) for name, fam in FAMILIES.items()))
