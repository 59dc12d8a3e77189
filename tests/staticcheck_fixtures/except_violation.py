"""Fixture: swallowed exceptions on a (configured-)critical path."""


def guard(fn):
    try:
        fn()
    except Exception:  # line 7: EXC002 when configured critical
        return None
