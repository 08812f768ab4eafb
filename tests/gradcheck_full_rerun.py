"""The full-rerun form of ``bptt.gradcheck``, kept as a test oracle.

Each central difference here reruns the whole network from its inputs.
``bptt.gradcheck`` reruns only the layers a perturbation reaches, on the
unperturbed forward's spikes of the layer below them, so its GEMMs read
the same values and its errors must equal these exactly.
"""

import numpy as np

from spikekit import numerics
from spikekit.bptt import backward, forward_record
from spikekit.network import readout_and_loss


def full_rerun_errors(net, inputs, labels, step_size: float = 1e-4) -> dict[str, float]:
    """Each parameter's ``max_rel_err``, by name, with whole-network reruns."""
    work = net.copy()
    inputs = numerics.as_dense(inputs)

    def loss_at() -> float:
        _, readout = forward_record(work, inputs, smoothed=True)
        loss, _, _ = readout_and_loss(readout, labels)
        return loss

    tape, readout = forward_record(work, inputs, smoothed=True)
    _, upstream, _ = readout_and_loss(readout, labels)
    analytic_by_name = dict(backward(tape, upstream, work).items())

    errors = {}
    for name, param in work.parameter_items():
        analytic = np.asarray(analytic_by_name[name], dtype=np.float64)
        numeric = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = param[idx]
            param[idx] = saved + step_size
            loss_plus = loss_at()
            param[idx] = saved - step_size
            loss_minus = loss_at()
            param[idx] = saved
            numeric[idx] = (loss_plus - loss_minus) / (2.0 * step_size)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        errors[name] = float(np.max(np.abs(analytic - numeric) / denom))
    return errors
