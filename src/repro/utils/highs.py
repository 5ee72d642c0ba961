"""The HiGHS bindings scipy (>= 1.15, the package floor) vendors, and one model builder.

The attack LP engine and the ``l1`` estimator build their warm-started models here.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize._highspy import _core as highs  # noqa: PLC2701

from repro.exceptions import ValidationError

__all__ = ["highs", "row_wise_model"]


def row_wise_model(
    cost: np.ndarray, col_upper: np.ndarray, row_lower: np.ndarray, row_upper: np.ndarray,
    start: np.ndarray, index: np.ndarray, value: np.ndarray,
) -> highs._Highs:
    """A quiet single-threaded model of ``min cost·x`` over ``x >= 0``.

    The constraint matrix is row-wise CSR (``start`` ends with the closing
    offset); it and every bound vector (``±inf`` where open) go to HiGHS in
    one call of the 15-argument array ``passModel`` overload.
    """
    model = highs._Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("threads", 1)
    status = model.passModel(
        len(cost), len(row_lower), len(value),
        int(highs.MatrixFormat.kRowwise), int(highs.ObjSense.kMinimize), 0.0,
        cost, np.zeros(len(cost)), col_upper, row_lower, row_upper,
        np.asarray(start, dtype=np.int32), np.asarray(index, dtype=np.int32), value,
        np.zeros(len(cost), dtype=np.int32),  # every column continuous
    )
    if status == highs.HighsStatus.kError:
        raise ValidationError("HiGHS rejected the LP model")
    return model
