"""Shared test helpers."""

import numpy as np


class History:
    """A run sink that keeps a copy of every chunk it is shown, and gives
    them back as the (T, K) played levels and rewards and the (T,) expected
    values of the run; with lanes, each has a leading axis of the R lanes."""

    def __init__(self):
        self.chunks = []  # (start, levels, rewards, expected), copied

    def __call__(self, start, levels, rewards, expected):
        self.chunks.append((start, levels.copy(), rewards.copy(), expected.copy()))

    @property
    def levels(self):
        return np.concatenate([levels for _, levels, _, _ in self.chunks], axis=-2)

    @property
    def rewards(self):
        return np.concatenate([rewards for _, _, rewards, _ in self.chunks], axis=-2)

    @property
    def expected(self):
        return np.concatenate([exp for _, _, _, exp in self.chunks], axis=-1)


class Expected:
    """A run sink that copies only the expected values into a preallocated
    (T,) array, (R, T) with lanes, and keeps no levels or rewards."""

    def __init__(self, horizon, lanes=None):
        self.values = np.empty(horizon if lanes is None else (lanes, horizon))

    def __call__(self, start, levels, rewards, expected):
        self.values[..., start - 1 : start - 1 + expected.shape[-1]] = expected
