"""Central-difference gradient check for the tape: the tests compare
`Tape.backward` against it wherever no closed-form oracle exists."""

import numpy as np

from contextvp.tensor import ShapeError, Tape


def finite_diff_check(f, params, h: float = 1e-6, kink_tol: float = 1e-2):
    """Compare analytic gradients of ``f`` against central differences.

    ``f(tape, params) -> scalar Tensor`` must be a pure function of the
    parameter values. Returns ``(max_rel_err, excluded)`` where the error is
    max over parameter entries of |analytic - numeric| / max(1, |analytic|),
    and ``excluded`` lists (param_index, flat_index) entries whose second
    difference |f(+h) + f(-h) - 2 f(0)| / (2h) exceeded ``kink_tol`` --
    i.e. points sitting on a kink of a piecewise-smooth objective, where a
    central difference is meaningless.
    """
    tape = Tape()
    loss = f(tape, params)
    if loss.data.shape != ():
        raise ShapeError("finite_diff_check: f must return a scalar")
    f0 = float(loss.data)
    if not np.isfinite(f0):
        raise FloatingPointError("finite_diff_check: f evaluated non-finite")
    tape.backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]

    def value() -> float:
        v = float(f(Tape(recording=False), params).data)
        if not np.isfinite(v):
            raise FloatingPointError("finite_diff_check: f evaluated non-finite")
        return v

    max_rel = 0.0
    excluded = []
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = value()
            flat[idx] = orig - h
            fm = value()
            flat[idx] = orig
            if abs(fp + fm - 2.0 * f0) / (2.0 * h) > kink_tol:
                excluded.append((pi, idx))
                continue
            numeric = (fp - fm) / (2.0 * h)
            a = analytic[pi].reshape(-1)[idx]
            rel = abs(a - numeric) / max(1.0, abs(a))
            if rel > max_rel:
                max_rel = rel
    return max_rel, excluded
