"""Forcing inputs for the cable-mass experiments.

Four oscillating input families drive the left mass:

    input1: u(t) = 0.1 sin(0.2 pi t)
    input2: u(t) = 0.02 cos(a t) + 0.03 cos(b t), frequencies taken
            from the two slowest-decaying eigenvalue pairs of A, read
            off the system's shared Schur factor
    input3: u(t) = c1 sin(m t) + c2 cos(nfreq t)
    input4: u(t) = 0.1 square(0.2 pi t)

plus the zero input for unforced energy studies.  The square wave is
+1 where sin > 0, -1 where sin < 0 and 0 at the crossings, so input4
takes values in {+0.1, 0, -0.1} exactly.

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

KINDS = ("sine1", "eig_cos2", "sin_cos3", "square4", "zero")

#: Kinds whose input is constant between its breakpoints.
PIECEWISE_CONSTANT = ("square4", "zero")

# Half period of the square wave: input4 jumps at t = 5k.
_SQUARE_HALF_PERIOD = 5.0

#: Mapping of config-facing preset names to input kinds.
INPUT_PRESETS = {
    "input1": "sine1",
    "input2": "eig_cos2",
    "input3": "sin_cos3",
    "input4": "square4",
    "zero": "zero",
}


class InvalidInput(ValueError):
    """An input field is out of range; carries the field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


@dataclass(frozen=True)
class InputSpec:
    """One forcing input.

    c1, c2, m, nfreq parameterize the sin_cos3 kind (the model study
    never pinned these constants; the defaults here are just a mild
    two-tone signal).  a, b are the eig_cos2 frequencies, given both or
    neither; unset, they stay None until resolved against a concrete
    system.  scale multiplies the whole signal.
    """

    kind: str = "sine1"
    c1: float = 0.05
    c2: float = 0.05
    m: float = 1.0
    nfreq: float = 2.0
    a: float | None = None
    b: float | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInput("kind", f"unknown input kind {self.kind!r}")
        for name in ("c1", "c2", "m", "nfreq", "scale"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidInput(name, f"{name} must be finite")
        for name in ("m", "nfreq"):
            if getattr(self, name) < 0.0:
                raise InvalidInput(name, f"{name} must be nonnegative")
        for name in ("a", "b"):
            value = getattr(self, name)
            if value is not None and (not np.isfinite(value) or value < 0.0):
                raise InvalidInput(name, f"{name} must be finite and nonnegative")
        if (self.a is None) != (self.b is None):
            unset = "a" if self.a is None else "b"
            raise InvalidInput(unset, f"{unset} is unset: give the input2 "
                                      "frequencies a and b both or neither")


def input_preset(name: str) -> InputSpec:
    """InputSpec for a named preset ("input1".."input4", "zero")."""
    try:
        kind = INPUT_PRESETS[name]
    except KeyError:
        raise InvalidInput("kind", f"unknown input preset {name!r}") from None
    return InputSpec(kind=kind)


def square_wave(s):
    """Square wave: sign of sin(s), with 0 at the sign changes."""
    return np.sign(np.sin(s))


def _check_resolved(spec: InputSpec) -> None:
    if spec.a is None:
        raise ValueError("eig_cos2 frequencies are unresolved; call "
                         "input2_frequencies against a system first")


def _zeros_like(t):
    if np.isscalar(t):
        return 0.0
    return np.zeros_like(np.asarray(t, dtype=float))


def eval_input(spec: InputSpec, t):
    """Evaluate the input at time t (scalar or array)."""
    if spec.kind == "sine1":
        value = 0.1 * np.sin(0.2 * np.pi * t)
    elif spec.kind == "eig_cos2":
        _check_resolved(spec)
        value = 0.02 * np.cos(spec.a * t) + 0.03 * np.cos(spec.b * t)
    elif spec.kind == "sin_cos3":
        value = spec.c1 * np.sin(spec.m * t) + spec.c2 * np.cos(spec.nfreq * t)
    elif spec.kind == "square4":
        value = 0.1 * square_wave(0.2 * np.pi * t)
    else:  # zero
        value = _zeros_like(t)
    return spec.scale * value


def eval_input_derivative(spec: InputSpec, t):
    """u'(t) in closed form, scaled like ``eval_input`` (scalar or array).

    The square wave's derivative is 0 between its breakpoints; at a
    breakpoint it does not exist and 0 is returned as well.
    """
    if spec.kind == "sine1":
        value = 0.1 * 0.2 * np.pi * np.cos(0.2 * np.pi * t)
    elif spec.kind == "eig_cos2":
        _check_resolved(spec)
        value = (-0.02 * spec.a * np.sin(spec.a * t)
                 - 0.03 * spec.b * np.sin(spec.b * t))
    elif spec.kind == "sin_cos3":
        value = (spec.c1 * spec.m * np.cos(spec.m * t)
                 - spec.c2 * spec.nfreq * np.sin(spec.nfreq * t))
    else:  # square4 between its jumps, zero
        value = _zeros_like(t)
    return spec.scale * value


def breakpoints(spec: InputSpec, t0: float, tf: float) -> np.ndarray:
    """Times strictly inside (t0, tf) where the input jumps.

    Only the square wave has any: t = 5k.  The endpoints are never
    listed, even when they sit on a jump.
    """
    if spec.kind != "square4":
        return np.empty(0)
    k = np.arange(np.floor(t0 / _SQUARE_HALF_PERIOD) + 1.0,
                  np.ceil(tf / _SQUARE_HALF_PERIOD))
    return _SQUARE_HALF_PERIOD * k


def dominant_modes(sys: StateSpaceSystem, count: int = 2) -> np.ndarray:
    """Eigenvalues with the largest real parts, one per conjugate pair.

    Real eigenvalues and the upper-half-plane member of each complex
    pair are kept, sorted by decreasing real part.  They are read off
    the system's shared Schur factor (``sys.schur``).
    """
    eigs = sys.schur.eigenvalues
    reps = eigs[eigs.imag >= 0.0]
    order = np.lexsort((-np.abs(reps.imag), -reps.real))
    return reps[order][:count]


def input2_frequencies(sys: StateSpaceSystem,
                       mode: str = "literal") -> tuple[float, float]:
    """Forcing frequencies (a, b) for the eig_cos2 input.

    mode="literal" (default) reads the frequencies off the two largest
    real parts of the eigenvalues of A, which gives slow near-constant
    cosines whose beating grows the response before the damping pulls
    it back.  mode="imag" instead takes the absolute imaginary parts of
    those dominant eigenvalues, i.e. forcing at the two slowest-decaying
    resonances.  Either way the magnitudes are returned, since cos is
    even.
    """
    if mode not in ("imag", "literal"):
        raise ValueError(f"input2_mode must be 'imag' or 'literal', got {mode!r}")
    modes = dominant_modes(sys, count=2)
    if modes.size < 2:
        raise ValueError("system has fewer than two eigenvalue pairs")
    if mode == "imag":
        return float(abs(modes[0].imag)), float(abs(modes[1].imag))
    return float(abs(modes[0].real)), float(abs(modes[1].real))


def resolve_input(spec: InputSpec, sys: StateSpaceSystem,
                  mode: str = "literal") -> InputSpec:
    """Fill in the eig_cos2 frequencies of spec from a concrete system."""
    if spec.kind != "eig_cos2" or spec.a is not None:
        return spec
    a, b = input2_frequencies(sys, mode=mode)
    return replace(spec, a=a, b=b)
