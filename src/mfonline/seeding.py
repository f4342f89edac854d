"""Deterministic named substreams from one master seed.

Every random draw in the library flows from a master integer seed through
named substreams, so a run is reproducible regardless of how work is
scheduled across threads.  A substream is identified by a path of labels,
e.g. ``substream(seed, "trial", 3, "noise")``.  Labels are hashed to 32-bit
words and fed to numpy's SeedSequence as a spawn key, which is stable
across platforms and numpy versions.

Substreams are cut at the top: the experiment runners, ``compare_oos`` and
``regret_run`` take integer seeds and name their substreams; everything
they call takes the resulting Generator.
"""

import zlib

import numpy as np


def _key_words(path):
    words = []
    for part in path:
        if isinstance(part, (int, np.integer)):
            if part < 0:
                raise ValueError("substream path integers must be nonnegative")
            v = int(part)
            # split into 32-bit words, low first; tag ints vs strings
            words.append(0x1)
            while True:
                words.append(v & 0xFFFFFFFF)
                v >>= 32
                if v == 0:
                    break
        elif isinstance(part, str):
            words.append(0x2)
            words.append(zlib.crc32(part.encode("utf-8")) & 0xFFFFFFFF)
            words.append(len(part) & 0xFFFFFFFF)
        else:
            raise TypeError(f"substream path parts must be int or str, got {type(part)!r}")
    return tuple(words)


def substream(master_seed, *path) -> np.random.Generator:
    """Generator for the named substream ``path`` under ``master_seed``.

    Same (seed, path) always yields the same stream; distinct paths are
    statistically independent.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=_key_words(path))
    return np.random.default_rng(ss)
