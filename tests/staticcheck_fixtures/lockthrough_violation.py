"""A lock-order cycle that closes only through a blocking call: the
poller holds _poll across Session.execute, which takes _latch, and
execute_then_poll holds _latch while the poll takes _poll."""

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
