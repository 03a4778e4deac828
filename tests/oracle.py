"""Per-sample reference maths: one span, one phrase triple, one row.

Written from the formulas with numpy alone, so the tests can hold the
batched, column-blocked library path against code that shares none of it.
"""

import numpy as np


def compose(kind, vectors):
    """Add: the sum of the word vectors. Bi: the sum of tanh over the sums of
    adjacent word pairs (zero for a single word)."""
    v = np.asarray(vectors, dtype=np.float64)
    if kind == "add":
        return v.sum(axis=0)
    return np.tanh(v[:-1] + v[1:]).sum(axis=0)


def compose_backward(kind, vectors, upstream):
    """Per-word gradient of ``upstream @ compose(kind, vectors)``."""
    v = np.asarray(vectors, dtype=np.float64)
    if kind == "add":
        return np.tile(upstream, (len(v), 1))
    d = (1.0 - np.tanh(v[:-1] + v[1:]) ** 2) * upstream
    out = np.zeros_like(v)
    out[:-1] += d
    out[1:] += d
    return out


def mono_loss(outer, inner, noise, len_outer, len_inner, margin):
    """Inclusion loss of one phrase triple from its composed vectors:
    [max(0, margin + d_in - d_no) + d_in] * len_inner / len_outer."""
    d_in = float(((outer - inner) ** 2).sum())
    d_no = float(((outer - noise) ** 2).sum())
    return (max(0.0, margin + d_in - d_no) + d_in) * len_inner / len_outer


def adagrad_step(w, g_acc, grad, lr, eps):
    """One AdaGrad step on one row: G += g^2, then w -= lr * g / (sqrt(G) + eps).
    Returns the new (G, w)."""
    g_new = g_acc + grad * grad
    return g_new, w - lr * grad / (np.sqrt(g_new) + eps)
