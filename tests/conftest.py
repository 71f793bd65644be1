import math
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from cablemass import linalg, ode
from cablemass.model import PhysicalParams

# Damping scenarios used throughout (fixed parameters l=1, m0=1,
# ml=1.5, k3=1, beta=1 are the dataclass defaults).
EXAMPLE1 = PhysicalParams(gamma=0.1, alphal=0.1, k0=1.0, kl=1.0)
EXAMPLE2_SMALL = PhysicalParams(gamma=0.0, alpha=0.01, alpha0=0.01,
                                alphal=0.01, k0=0.01, kl=0.01)
EXAMPLE3 = PhysicalParams(gamma=0.1, alpha=0.1, k0=1.0, kl=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_stable(rng, n, margin=0.5):
    """Random dense matrix shifted to have spectral abscissa <= -margin."""
    a = rng.standard_normal((n, n))
    shift = np.linalg.eigvals(a).real.max() + margin
    return a - shift * np.eye(n)


def schur_system(a, **matrices):
    """A stand-in system: A, its real Schur factor and any other matrices.

    Carries what ``StateSpaceSystem`` gives the spectrum and Gramian
    readers, ``a`` and ``schur``, for a matrix no finite-difference
    model produces.
    """
    a = np.asarray(a, dtype=float)
    return SimpleNamespace(a=a, schur=linalg.real_schur(a), **matrices)


def record_dtrsyl(monkeypatch):
    """Patch linalg.dtrsyl to log the orders (m, n) of its A and B."""
    calls = []
    real = linalg.dtrsyl

    def recording(a, b, *args):
        calls.append((a.shape[0], b.shape[0]))
        return real(a, b, *args)

    monkeypatch.setattr(linalg, "dtrsyl", recording)
    return calls


def record_real_schur(monkeypatch):
    """Patch linalg.real_schur to log the order of every matrix it factors."""
    calls = []
    real = linalg.real_schur

    def recording(a):
        calls.append(np.shape(a)[0])
        return real(a)

    monkeypatch.setattr(linalg, "real_schur", recording)
    return calls


def linear_derivatives(a):
    """The exact derivatives of x' = A x, as ``ode.integrate`` keywords.

    Returns {"jacobian": J, "dfdt": df/dt} with J(t, x) = A and
    df/dt = 0; a scalar a stands for the 1 x 1 matrix [[a]].
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    zero = np.zeros(a.shape[0])
    return {"jacobian": lambda t, x: a, "dfdt": lambda t, x: zero}


class IntegrateCall(NamedTuple):
    t0: float
    tf: float
    x0: np.ndarray
    rhs: Callable
    result: ode.Trajectory | ode.Samples
    method: ode.Method
    max_step: float


def record_integrate(monkeypatch):
    """Patch ode.integrate to log an IntegrateCall for every call."""
    calls = []
    real = ode.integrate

    def recording(rhs, x0, t0, tf, **kwargs):
        x0 = np.array(x0)  # the caller's start state, as passed
        result = real(rhs, x0, t0, tf, **kwargs)
        calls.append(IntegrateCall(
            t0, tf, x0, rhs, result, kwargs.get("method", ode.ROS23),
            kwargs.get("max_step", math.inf)))
        return result

    monkeypatch.setattr(ode, "integrate", recording)
    return calls
