"""Hankel singular values of a preset's FOM in 60-digit arithmetic.

    python tools/hankel_oracle.py [--preset P ...] [--n N ...]
                                  [--out PATH | --check PATH]

Builds each preset's full-order model at each n in double precision, as
the library does, and takes its A, b and c as exact.  In ``mpmath`` at
60 significant digits it diagonalises A = V diag(lambda) V^-1 and solves
both Lyapunov equations in the eigenvector basis:

    P = V X V^H,    X_ij = -(V^-1 b)_i conj((V^-1 b)_j) / (lambda_i + conj lambda_j),
    Q = V^-H Y V^-1,    Y_ij = -conj((c V)_i) (c V)_j / (conj lambda_i + lambda_j),

so A P + P A^T + b b^T = 0 and A^T Q + Q A + c^T c = 0, and the Hankel
values are sigma = sqrt(eig(P Q)), nonincreasing (an eigenvalue that
rounds below zero gives 0; values near 1e-30 sigma_1 are the rounding
floor of 60 digits).  Without options it runs the 9 presets at n = 10
and 20 (about 4 minutes on one core) and prints the values as JSON.  ``--out`` writes that JSON to a file (the
committed one is ``tests/data/hankel_oracle.json``).  ``--check`` reads
such a file and exits 1 unless every computed value is within
``CHECK_TOL`` times sigma_1 of the stored one (the stored ones carry 20
digits); a preset at n = 10 takes 3-4 s.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cablemass.cli import PRESETS, get_preset  # noqa: E402
from cablemass.model import build_system  # noqa: E402

DIGITS = 60
# Significant digits kept per stored value.
STORED_DIGITS = 20
# Largest difference from a stored value in --check, relative to sigma_1:
# room for a last-bit change in the double-precision model, far below the
# library's own errors against these values (1e-14 to 4e-8).
CHECK_TOL = 1e-13
NS = (10, 20)


def hankel_values(a, b, c) -> list:
    """The Hankel values of (A, b, c), as mpf, at the working precision."""
    lam, v = mp.eig(mp.matrix(a.tolist()))
    vinv = mp.inverse(v)
    bt = vinv * mp.matrix(b.tolist())
    ct = mp.matrix(c.tolist()) * v
    dim = len(lam)
    x = mp.matrix(dim, dim)
    y = mp.matrix(dim, dim)
    for i in range(dim):
        for j in range(dim):
            x[i, j] = -sum(bt[i, k] * mp.conj(bt[j, k])
                           for k in range(bt.cols)) / (lam[i] + mp.conj(lam[j]))
            y[i, j] = -sum(mp.conj(ct[k, i]) * ct[k, j]
                           for k in range(ct.rows)) / (mp.conj(lam[i]) + lam[j])
    p = v * x * v.H
    q = vinv.H * y * vinv
    # P and Q are real to the working precision; their product's spectrum
    # is real and nonnegative
    pq = mp.matrix([[mp.re(e) for e in row] for row in (p * q).tolist()])
    eigs = sorted((mp.re(e) for e in mp.eig(pq, left=False, right=False)),
                  reverse=True)
    return [mp.sqrt(max(e, 0)) for e in eigs]


def preset_values(name: str, n: int) -> list[str]:
    sys_ = build_system(get_preset(name).params, n)
    return [mp.nstr(s, STORED_DIGITS, min_fixed=1, max_fixed=0)
            for s in hankel_values(sys_.a, sys_.b, sys_.c)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", action="append", choices=sorted(PRESETS))
    parser.add_argument("--n", action="append", type=int)
    out = parser.add_mutually_exclusive_group()
    out.add_argument("--out", type=Path)
    out.add_argument("--check", type=Path)
    args = parser.parse_args(argv)
    mp.mp.dps = DIGITS
    names, ns = args.preset or list(PRESETS), args.n or list(NS)
    sigma = {name: {str(n): preset_values(name, n) for n in ns}
             for name in names}
    if args.check is None:
        text = json.dumps({"digits": DIGITS, "sigma": sigma}, indent=1)
        if args.out is None:
            print(text)
        else:
            args.out.write_text(text + "\n")
        return 0
    stored = json.loads(args.check.read_text())["sigma"]
    worst = 0.0
    for name, by_n in sigma.items():
        for n, values in by_n.items():
            ref = [float(s) for s in stored[name][n]]
            got = [float(s) for s in values]
            if len(got) != len(ref):
                print(f"{name} n={n}: {len(got)} values, stored {len(ref)}")
                return 1
            err = max(abs(g - r) for g, r in zip(got, ref)) / ref[0]
            print(f"{name} n={n}: largest move {err:.2e} of sigma_1")
            worst = max(worst, err)
    return 0 if worst <= CHECK_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
