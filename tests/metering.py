"""Multiplication counting for the cost ceilings in the tests."""

import dataclasses
import types


def counted(S, cap=None):
    """A copy of stream ``S`` and a meter whose ``calls`` counts the copy's
    multiplications.  Past ``cap`` calls, when one is given, multiplication
    raises, so a run over its ceiling (or a hang) fails fast."""
    meter = types.SimpleNamespace(calls=0)
    inner = S.mul_fn

    def mul_fn(x, y):
        meter.calls += 1
        if cap is not None and meter.calls > cap:
            raise AssertionError(f"{S.name}: more than {cap} multiplications")
        return inner(x, y)

    return dataclasses.replace(S, mul_fn=mul_fn), meter


def capped(S, cap):
    """A copy of stream ``S`` whose multiplication raises once it has been
    called more than ``cap`` times."""
    return counted(S, cap)[0]
