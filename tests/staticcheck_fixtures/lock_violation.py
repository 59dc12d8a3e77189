"""Fixture: attributes of a lock-owning class mutated without the lock."""

import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self.events = []

    def bump(self):
        self.count += 1  # line 13: LCK001

    def log(self, event):
        self.events.append(event)  # line 16: LCK001

    def rename(self, event):
        self.events[0] = event  # line 19: LCK001

    def safe_bump(self):
        with self._lock:
            self.count += 1
