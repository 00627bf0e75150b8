"""Complex-plane primitives: the regularizing double cover, its conformal
weight, the inversion involution, and winding numbers.

The two attracting centers are normalized to -1 and +1.  The map
``B(z) = (z + 1/z)/2`` is a 2-to-1 branched cover of the plane, branched at
``z = +-1``, and folds ``z`` and ``1/z`` onto the same physical point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "WindingError",
    "WindingReport",
    "birkhoff_map",
    "birkhoff_derivative",
    "center_distance",
    "conformal_weight",
    "involution",
    "winding",
    "winding_report",
]


class DomainError(ValueError):
    """Input outside the domain of a complex-plane primitive."""


class WindingError(ValueError):
    """Winding number undefined or not resolvable from the given samples."""


def _as_complex(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise DomainError("nonfinite input")
    return z


def _check_nonzero(z: np.ndarray, message: str) -> None:
    if np.any(z == 0):
        raise DomainError(message)


def birkhoff_map(z):
    """B(z) = (z + 1/z)/2.  Folds z and 1/z to the same point; B(+-1) = +-1."""
    z = _as_complex(z)
    _check_nonzero(z, "Birkhoff map undefined at origin")
    return 0.5 * (z + 1.0 / z)


def birkhoff_derivative(z):
    """dB/dz = (1 - 1/z^2)/2.  Vanishes exactly at the branch points +-1."""
    z = _as_complex(z)
    _check_nonzero(z, "Birkhoff derivative undefined at origin")
    return 0.5 * (1.0 - 1.0 / z**2)


def conformal_weight(z):
    """w(z) = |z-1|^2 |z+1|^2 / (4|z|^2), the time-reparametrization density.

    Nonnegative, zero exactly at +-1, and invariant under z -> 1/z.
    """
    z = _as_complex(z)
    _check_nonzero(z, "conformal weight undefined at origin")
    return (np.abs(z - 1.0) ** 2) * (np.abs(z + 1.0) ** 2) / (4.0 * np.abs(z) ** 2)


def center_distance(q):
    """min(|q - 1|, |q + 1|): the distance of physical points q from the
    nearer center."""
    return np.minimum(np.abs(q - 1.0), np.abs(q + 1.0))


def involution(z):
    """The deck transformation I(z) = 1/z of the double cover."""
    z = _as_complex(z)
    _check_nonzero(z, "involution undefined at origin")
    return 1.0 / z


@dataclass(frozen=True)
class WindingReport:
    """Winding numbers of a closed loop about the two centers."""

    around_minus_one: int
    around_plus_one: int

    @property
    def total(self) -> int:
        return self.around_minus_one + self.around_plus_one


def winding(samples, center, clearance: float = 1e-8) -> int:
    """Winding number of a closed sampled loop about ``center``.

    Sums principal-branch angle increments between consecutive samples
    (including the wrap-around step).  Requires every sample to keep a
    distance > ``clearance`` from the center and every angular increment to
    stay below pi, otherwise the winding number is not determined by the
    samples.
    """
    return int(_windings(samples, [complex(center)], clearance)[0])


def winding_report(samples, clearance: float = 1e-8) -> WindingReport:
    """Winding numbers about both centers -1 and +1, in one pass over the
    samples; raises WindingError where either is undefined."""
    minus, plus = _windings(samples, [-1.0, 1.0], clearance)
    return WindingReport(around_minus_one=int(minus), around_plus_one=int(plus))


def _windings(samples, centers, clearance: float) -> np.ndarray:
    """``winding`` about each of the centers, as one (centers, samples)
    array: WindingError if the rule fails about any of them."""
    z = _as_complex(samples)
    if z.ndim != 1 or len(z) < 3:
        raise WindingError("need at least 3 loop samples")
    rel = z - np.array(centers)[:, None]
    if np.min(np.abs(rel)) <= clearance:
        raise WindingError("winding undefined: loop touches center")
    ahead = np.concatenate([rel[:, 1:], rel[:, :1]], axis=1)  # the next sample, wrapping
    inc = np.angle(ahead / rel)
    if np.max(np.abs(inc)) >= np.pi * (1.0 - 1e-12):
        raise WindingError("undersampled loop")
    total = np.sum(inc, axis=1) / (2.0 * np.pi)
    n = np.round(total)
    if np.max(np.abs(total - n)) > 1e-6:
        raise WindingError("angle increments do not close up to a full turn")
    return n
