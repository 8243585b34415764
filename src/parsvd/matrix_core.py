"""Dense complex matrix and vector primitives.

Matrices are plain numpy arrays of dtype complex128, row-major, with
``rows >= 1`` and ``cols >= 1``. All operations are pure functions; no
internal state is shared, so everything here is safe to call from
concurrent contexts.

Counts (iteration budgets, sweeps, trials, panels) pass one check,
``as_count``: a bool, a non-integer or a value below 1 raises
ValidationError.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DimensionError, ValidationError


def as_matrix(data) -> np.ndarray:
    """Coerce *data* to a validated 2-D complex128 array.

    Raises ValidationError for empty dimensions or non-finite entries.
    """
    a = np.asarray(data, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"matrix dimensions must be >= 1, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix contains NaN or Inf entries")
    return a


def as_vector(data) -> np.ndarray:
    """Coerce *data* to a validated 1-D complex128 array."""
    v = np.asarray(data, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got ndim={v.ndim}")
    if v.shape[0] < 1:
        raise DimensionError("vector length must be >= 1")
    if not np.isfinite(v).all():
        raise ValidationError("vector contains NaN or Inf entries")
    return v


def as_count(value, name: str) -> int:
    """``value`` as an int >= 1; ValidationError naming ``name`` for a bool,
    a non-integer or a value below 1."""
    try:
        n = operator.index(value)
    except TypeError:
        n = 0
    if isinstance(value, bool) or n < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
    return n


def one_shape(shapes, name: str):
    """The one shape of a nonempty stack; DimensionError naming ``name``
    for an empty stack or one of mixed shapes."""
    found = sorted(set(shapes))
    if len(found) != 1:
        raise DimensionError(f"{name} needs a nonempty stack of one shape, got {found}")
    return found[0]


def fro_norm(a) -> float:
    """Frobenius norm, sqrt(sum |a_ij|^2)."""
    a = as_matrix(a)
    return float(np.sqrt(np.sum(a.real * a.real + a.imag * a.imag)))


_SAFE_EXP = 128


def pow2_scale(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a * 2**-e, e) with e bringing the largest real or imaginary part of a
    into [0.5, 1) when it lies outside 2**(+-_SAFE_EXP), else (a, 0), no copy.

    Products of the result's largest entries stay far from overflow and
    underflow; the power-of-two scale is exact."""
    big = max(a.real.max(), -a.real.min(), a.imag.max(), -a.imag.min())
    e = math.frexp(float(big))[1]
    if abs(e) <= _SAFE_EXP:
        return a, 0
    return np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e), e

