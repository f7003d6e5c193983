"""Deterministic RNG stream derivation.

Every stochastic routine in this package draws from a numpy Generator
derived from an integer seed plus a structured key (level index, trial
index, ...), so a result depends only on its own key, not on what else was
drawn before it. One rule says which kind of argument a routine takes:
a routine that derives sub-streams takes a seed key (``new_model``,
``mifs_stack``, ``coverage_experiment``, ``bernstein_coverage_test``); a
routine that draws in sequence takes a ``Generator`` and leaves it advanced
(``sample_difference_matrix``, ``gmm_fit``, ``fit_codec``).

Every key the package derives, with ``seed`` the config seed:

    ==========  ==========================  =================================
    subsystem   key                         draws
    ==========  ==========================  =================================
    dataset     (seed, 0)                   class templates
    dataset     (seed, 1, class, speed)     one cell's amplitudes and noise
    latent      (seed, 0)                   the direction matrix
    codec       (seed, 2[, salt])           PCA/EM sampling; salt i is grid
                                            schedule i, none for ``encode``
    SVM         (seed, 3[, salt], class)    one binary problem's coordinate
                                            orders; salt as for the codec
    features    (seed, level)               one level of ``mifs_stack``
    coverage    (seed, trial)               a fixed-skip trial of its own
    coverage    ((seed, trial), level)      one level of a stacked trial;
                                            level 0 is also its paired
                                            fixed-skip trial
    bernstein   (seed, trial)               one trial's sign vectors
    ==========  ==========================  =================================

Latent and dataset share (seed, 0): a model and a dataset of one seed
start from the same stream. More keys meet: level 0 of ``spectrum``'s
stack is (seed, 0), the latent model's stream, and by the trailing-zero
rule below a fixed-skip trial of its own, (seed, t), draws the same
matrix as level 0 of stacked trial t. ``sim-condition`` does not rely on
that: its two routes are paired by construction, since the stacked route
draws level 0 of each trial once, even where the schedule masks it out,
and reads the fixed-skip trial from it.

Keys are hashed by ``np.random.SeedSequence``, which pads its entropy with
zeros, so keys that differ only by trailing zeros give the same stream:
``stream(0, 2)``, ``stream(0, 2, 0)`` and ``stream((0, 2), 0)`` draw the
same numbers; the grid's salt-0 codec stream is the ``encode`` verb's.
Other distinct keys give independent streams. The derivation stays as it
is, since changing it would move every output, so a new key must not
differ from an existing one only by trailing zeros. ``SeedSequence``
itself rejects a negative key, with a ValueError.
"""
from __future__ import annotations

import numpy as np

def stream(seed: int | tuple[int, ...], *key: int) -> np.random.Generator:
    """Generator for (seed, *key); same arguments always give the same stream."""
    # SeedSequence flattens a tuple seed into the key's words
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))

