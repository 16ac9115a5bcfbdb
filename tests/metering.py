"""Multiplication counting for the cost ceilings in the tests."""

import dataclasses


def capped(S, cap):
    """A copy of stream ``S`` whose multiplication raises once it has been
    called more than ``cap`` times, so a run over its ceiling (or a hang)
    fails fast."""
    calls = 0
    inner = S.mul_fn

    def mul_fn(x, y):
        nonlocal calls
        calls += 1
        if calls > cap:
            raise AssertionError(f"{S.name}: more than {cap} multiplications")
        return inner(x, y)

    return dataclasses.replace(S, mul_fn=mul_fn)
