"""The sublevel labelling of the oracle, kept as its own module.

:func:`sublevel_labels` reads the components of the sublevel sets of a
filtered graph off one :func:`roots.label_sweep`.  ``oracle.enumerate_sublevel``
calls it, and the benchmark's ``oracle.levels`` counter wraps it by this
module and name.  The lattice edges come from the enumeration tree in
:mod:`oracle`.
"""

from __future__ import annotations

import numpy as np

from .roots import label_sweep


def sublevel_labels(chi, eu, ev, n_lo, n_hi):
    """Component labels of the sublevel sets {chi <= n}, one row for each
    n_lo <= n <= n_hi: labels[li, p] is the smallest point index in the
    component of point p inside {chi <= n_lo + li}, or -1 while p is
    outside it.  One :func:`roots.label_sweep` fills every row: a level
    writes its labels into its row and all later ones."""
    chi = np.asarray(chi, dtype=np.int64)
    labels = np.full((n_hi - n_lo + 1, len(chi)), -1, dtype=np.int64)
    for n, lab in label_sweep(chi, eu, ev, top=n_hi):
        labels[max(n - n_lo, 0):] = lab
    labels[chi > np.arange(n_lo, n_hi + 1)[:, None]] = -1
    return labels
