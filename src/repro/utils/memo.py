"""A one-entry memo for what every worker of a host derives alike."""

from __future__ import annotations

import operator

import numpy as np


class LastCall:
    """``memo(key, compute)``: ``compute()``, a function of the objects in
    ``key`` alone, kept read-only and served while ``key`` holds the very
    objects of the kept call (held, so no id is reused).  A key with a
    writable array, which could change in place, is never served."""

    _key, _value = (), None

    def __call__(self, key: tuple, compute):
        for x in key:
            if isinstance(x, np.ndarray) and x.flags.writeable:
                return compute()
        if len(key) != len(self._key) or not all(map(operator.is_, key, self._key)):
            value = compute()
            for array in value if isinstance(value, tuple) else (value,):
                array.setflags(write=False)
            self._key, self._value = key, value
        return self._value
