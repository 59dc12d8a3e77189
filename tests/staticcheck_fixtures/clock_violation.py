"""Fixture: wall-clock reads outside the clock module."""

import time as walltime
from time import monotonic  # line 4: no finding (the call is CLK001)
from datetime import datetime


def stamp():
    return walltime.time()  # line 9: CLK001


def when():
    return datetime.now()  # line 13: CLK001


def tick():
    return monotonic()  # line 17: CLK001 (resolved through the import)
