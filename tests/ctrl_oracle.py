"""Reference control recovery: 53 plain bisections of [0, 1] on the activation step.

This is the recovery the inversion used before it started bisecting from a
Newton estimate; ``myoctl.inverse._recover_ctrl`` must return the same
controls bit for bit.
"""

import numpy as np

from myoctl.muscle import _step_activation


def bisect_ctrl(act, act_next, dt, tau_act, tau_deact, tau_smooth):
    """Upper end of the bracket left after 53 halvings of [0, 1], all entries at once.

    Each pass keeps the upper half when the step from the midpoint falls
    short of ``act_next``; the midpoints are multiples of ``2**-53``.
    """
    lo = np.zeros(np.broadcast(act, act_next).shape)
    hi = np.ones(lo.shape)
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        short = _step_activation(act, mid, dt, tau_act, tau_deact, tau_smooth) < act_next
        lo = np.where(short, mid, lo)
        hi = np.where(short, hi, mid)
    return hi
