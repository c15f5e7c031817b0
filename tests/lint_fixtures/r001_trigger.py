"""R001 trigger: global/unseeded entropy sources and host-clock reads."""

import os
import random
import secrets
import time as t
import uuid

import numpy as np


def draw():
    a = random.random()
    b = np.random.default_rng().integers(0, 10)
    c = np.random.rand(3)
    return a, b, c


def stamp():
    # the alias hides the call from a name match, so the import is the finding
    return os.urandom(8), uuid.uuid4(), secrets.token_bytes(8), t.monotonic()
