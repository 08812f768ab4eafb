"""Two closed forms of the ``aia`` association update, kept as test oracles.

For one timestep of one sample, the weight update of a drive-modulated
(``aia``) layer is the neuron's weighted drive times dL/du, gated by the
presynaptic spike. :func:`aia_update_from_drive` writes that as one outer
product; :func:`aia_update_gated_sum` rebuilds it from explicit per-synapse
loops, so the two cross-check each other and the engine's ``aia`` site.
"""

import numpy as np

from spikekit import numerics


def aia_update_from_drive(w, o_pre, dldu) -> np.ndarray:
    """Drive-form association update for one timestep of one sample.

    Each entry is the neuron's total weighted drive times the potential
    gradient, gated by the presynaptic spike:
    ``(sum_k w[i, k] o_pre[k]) * dldu[i] * o_pre[j]``.
    """
    w = numerics.as_dense(w)
    o_pre = numerics.as_dense(o_pre)
    dldu = numerics.as_dense(dldu)
    drive = w @ o_pre
    return np.outer(drive * dldu, o_pre)


def aia_update_gated_sum(w, o_pre, dldu) -> np.ndarray:
    """Gated-sum association update, written as explicit per-synapse loops.

    Independently accumulates, for each neuron, the presynaptically gated
    sum of weighted leaky-rule terms ``o_pre[k] * w[i, k] * (dldu[i] *
    o_pre[k])`` and distributes it to every active synapse. Kept loop-based
    on purpose as a cross-check for :func:`aia_update_from_drive`.
    """
    w = numerics.as_dense(w)
    o_pre = numerics.as_dense(o_pre)
    dldu = numerics.as_dense(dldu)
    out_n, in_n = w.shape
    update = np.zeros((out_n, in_n))
    for i in range(out_n):
        gathered = 0.0
        for k in range(in_n):
            leaky_term = dldu[i] * o_pre[k]
            gathered += o_pre[k] * w[i, k] * leaky_term
        for j in range(in_n):
            update[i, j] = o_pre[j] * gathered
    return update
