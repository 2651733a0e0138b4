import numpy as np
import pytest

from ballmaps import numerics
from ballmaps.errors import NumericError


def test_wide_precision_guard_rejects_plain_double():
    with pytest.raises(NumericError, match="eps 2.22e-16"):
        numerics.check_wide_precision(np.float64)
