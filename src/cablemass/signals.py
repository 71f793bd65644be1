"""Forcing inputs for the cable-mass experiments.

Four oscillating input families drive the left mass:

    input1: u(t) = 0.1 sin(0.2 pi t)
    input2: u(t) = 0.02 cos(a t) + 0.03 cos(b t), a and b the
            magnitudes of the real parts of the two slowest-decaying
            eigenvalue pairs of A, read off the system's shared Schur
            factor
    input3: u(t) = 0.05 sin(t) + 0.05 cos(2t)
    input4: u(t) = 0.1 square(0.2 pi t)

plus the zero input for unforced energy studies; ``KINDS`` holds these
five names.  Each is one fixed formula, scaled by ``InputSpec.scale``.
The study never pinned input3's constants; these are just a mild
two-tone signal.  The square wave is +1 where sin > 0, -1 where sin < 0
and 0 at the crossings, so input4 takes values in {+0.1, 0, -0.1}
exactly.

The square wave jumps at its ``breakpoints`` t = 5k and is constant in
between; a simulation ends a step on every jump, never steps across one.
``eval_input_derivative`` gives u'(t) in closed form (0 for the square
wave between its jumps), which the Rosenbrock integrator
(``ode.integrate``) needs for df/dt = B u'(t); no library run calls it
any more.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import StateSpaceSystem

KINDS = ("input1", "input2", "input3", "input4", "zero")

#: Kinds whose input is constant between its breakpoints.
PIECEWISE_CONSTANT = ("input4", "zero")

# Half period of the square wave: input4 jumps at t = 5k.
_SQUARE_HALF_PERIOD = 5.0


class InvalidInput(ValueError):
    """An input field is out of range; carries the field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


@dataclass(frozen=True)
class InputSpec:
    """One forcing input.

    kind is one of ``KINDS``: input1..input4 or zero, each one fixed
    formula (input3 is 0.05 sin(t) + 0.05 cos(2t): the model study never
    pinned its constants, so it is just a mild two-tone signal).  a, b
    are the input2 frequencies, given both or neither; unset, they stay
    None until resolved against a concrete system.  scale multiplies the
    whole signal.
    """

    kind: str = "input1"
    a: float | None = None
    b: float | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInput("kind", f"unknown input kind {self.kind!r}")
        if not np.isfinite(self.scale):
            raise InvalidInput("scale", "scale must be finite")
        for name in ("a", "b"):
            value = getattr(self, name)
            if value is not None and (not np.isfinite(value) or value < 0.0):
                raise InvalidInput(name, f"{name} must be finite and nonnegative")
        if (self.a is None) != (self.b is None):
            unset = "a" if self.a is None else "b"
            raise InvalidInput(unset, f"{unset} is unset: give the input2 "
                                      "frequencies a and b both or neither")


def input_preset(name: str) -> InputSpec:
    """InputSpec(kind=name), every other field at its default."""
    return InputSpec(kind=name)


def square_wave(s):
    """Square wave: sign of sin(s), with 0 at the sign changes."""
    return np.sign(np.sin(s))


def _check_resolved(spec: InputSpec) -> None:
    if spec.a is None:
        raise ValueError("input2 frequencies are unresolved; call "
                         "input2_frequencies against a system first")


def _zeros_like(t):
    if np.isscalar(t):
        return 0.0
    return np.zeros_like(np.asarray(t, dtype=float))


def eval_input(spec: InputSpec, t):
    """Evaluate the input at time t (scalar or array)."""
    if spec.kind == "input1":
        value = 0.1 * np.sin(0.2 * np.pi * t)
    elif spec.kind == "input2":
        _check_resolved(spec)
        value = 0.02 * np.cos(spec.a * t) + 0.03 * np.cos(spec.b * t)
    elif spec.kind == "input3":
        value = 0.05 * np.sin(t) + 0.05 * np.cos(2.0 * t)
    elif spec.kind == "input4":
        value = 0.1 * square_wave(0.2 * np.pi * t)
    else:  # zero
        value = _zeros_like(t)
    return spec.scale * value


def eval_input_derivative(spec: InputSpec, t):
    """u'(t) in closed form, scaled like ``eval_input`` (scalar or array).

    The square wave's derivative is 0 between its breakpoints; at a
    breakpoint it does not exist and 0 is returned as well.
    """
    if spec.kind == "input1":
        value = 0.1 * 0.2 * np.pi * np.cos(0.2 * np.pi * t)
    elif spec.kind == "input2":
        _check_resolved(spec)
        value = (-0.02 * spec.a * np.sin(spec.a * t)
                 - 0.03 * spec.b * np.sin(spec.b * t))
    elif spec.kind == "input3":
        value = 0.05 * np.cos(t) - 0.1 * np.sin(2.0 * t)
    else:  # input4 between its jumps, zero
        value = _zeros_like(t)
    return spec.scale * value


def breakpoints(spec: InputSpec, t0: float, tf: float) -> np.ndarray:
    """Times strictly inside (t0, tf) where the input jumps.

    Only the square wave has any: t = 5k.  The endpoints are never
    listed, even when they sit on a jump.
    """
    if spec.kind != "input4":
        return np.empty(0)
    k = np.arange(np.floor(t0 / _SQUARE_HALF_PERIOD) + 1.0,
                  np.ceil(tf / _SQUARE_HALF_PERIOD))
    return _SQUARE_HALF_PERIOD * k


def input2_frequencies(sys: StateSpaceSystem) -> tuple[float, float]:
    """Forcing frequencies (a, b) for input2.

    The magnitudes of the two largest real parts of the eigenvalues of
    A, one per conjugate pair (real eigenvalues and the upper-half-plane
    member of each pair), read off the system's shared Schur factor
    (``sys.schur``): slow near-constant cosines whose beating grows the
    response before the damping pulls it back.
    """
    eigs = sys.schur.eigenvalues
    real = np.sort(eigs.real[eigs.imag >= 0.0])
    if real.size < 2:
        raise ValueError("system has fewer than two eigenvalue pairs")
    return float(abs(real[-1])), float(abs(real[-2]))


def resolve_input(spec: InputSpec, sys: StateSpaceSystem) -> InputSpec:
    """Fill in the input2 frequencies of spec from a concrete system."""
    if spec.kind != "input2" or spec.a is not None:
        return spec
    a, b = input2_frequencies(sys)
    return replace(spec, a=a, b=b)
