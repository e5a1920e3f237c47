"""Run a call with the recursion limit just above the caller's depth.

The engine walks game trees on an explicit stack, so no call should need
interpreter frames in proportion to the depth of a game.  `shallow` leaves
the call HEADROOM frames beyond its caller's, so a helper that recurses once
per level of a deep game raises RecursionError at once.
"""

import sys

HEADROOM = 100


def stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def shallow(fn, *args):
    """fn(*args), with the recursion limit HEADROOM frames above this depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + HEADROOM)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)
