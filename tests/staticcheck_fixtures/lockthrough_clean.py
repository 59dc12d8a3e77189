"""The poller still holds _poll across Session.execute, but
execute_then_poll releases _latch before it polls: one lock order."""

import threading


class Session:
    def __init__(self):
        self._latch = threading.Lock()
        self.rows = 0

    def execute(self, sql):
        with self._latch:
            self.rows += 1

    def execute_then_poll(self, poller: "Poller"):
        with self._latch:
            self.rows += 1
        poller.poll()


class Poller:
    def __init__(self):
        self._poll = threading.Lock()
        self.session = Session()

    def poll(self):
        with self._poll:
            self.session.execute("select 1")  # staticcheck: ignore[LCK004]
