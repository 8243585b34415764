import numpy as np
import pytest

from parsvd.errors import DimensionError, ValidationError
from parsvd.matrix_core import as_matrix, fro_norm


def test_fro_norm_cases():
    assert fro_norm(np.zeros((3, 2))) == 0.0
    assert fro_norm(np.eye(5)) == pytest.approx(np.sqrt(5), rel=1e-15)
    assert fro_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0, rel=1e-15)


def test_nan_rejected():
    with pytest.raises(ValidationError):
        as_matrix(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValidationError):
        as_matrix(np.array([[1.0, np.inf * 1j]]))


def test_empty_rejected():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((0, 2)))
