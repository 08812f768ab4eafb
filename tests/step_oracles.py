"""Textbook forms of the membrane step and the logistic, kept as test oracles.

:func:`masked_sigmoid` is the logistic written with boolean masks and
fancy indexing, ``1 / (1 + exp(-z))`` where ``z >= 0`` and
``exp(z) / (1 + exp(z))`` elsewhere. :func:`textbook_scan` runs the step
``u = leak * u * (1 - o) + d`` as a plain loop over fresh arrays.
``spikekit.neurons`` computes both in place, and must match them byte for
byte.
"""

import numpy as np


def masked_sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def textbook_scan(d, leak: float, v_th: float, width: float, smoothed: bool,
                  u=0.0, o=0.0):
    """Potentials and outputs of ``len(d)`` steps of the drive ``d``, from ``(u, o)``.

    Hard mode fires at ``u >= v_th``; smoothed mode emits
    ``logistic((u - v_th) / width)``.
    """
    us, outs = [], []
    for d_t in d:
        u = leak * u * (1.0 - o) + d_t
        o = masked_sigmoid((u - v_th) / width) if smoothed else u >= v_th
        us.append(u)
        outs.append(o)
    return np.array(us), np.array(outs)
