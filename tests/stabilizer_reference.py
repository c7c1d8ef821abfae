"""Frozen reference copy of the design step's numerical kernels.

The functions below are `_fd_jacobian`, `controllability`, `dlqr` and
`riccati_solution` from `devilstick.stabilizer` as they stood before the
Riccati step called the LAPACK solve gufunc directly and the difference
quotients were taken on floats, copied verbatim. `_closed_loop_return` and
`_fd_jacobian` are the fork that stood before every difference quotient
went through one closed-loop return of w = (z, u): the z-columns call
`_closed_loop_return(z, u)` with a zero u, while the u-columns and the
forward base call `poincare_map` with the nominal command cached at z*.
The return map they evaluate is the package's own `poincare_map`. The
iteration limits are this module's own, so a test can shorten both copies'
iterations alike.
tests/test_stabilizer.py checks that the package returns the same bits, or
raises the same error with the same message.
"""

from __future__ import annotations

import numpy as np

from devilstick.dvhc import kernel
from devilstick.dzd import OrbitSpec
from devilstick.errors import NotStabilizing, RiccatiDiverged
from devilstick.stabilizer import (NO_CORRECTION, SPECTRAL_MARGIN,
                                   FeedbackGain, _on_section, poincare_map)

RICCATI_TOL = 1e-12
RICCATI_MAX_ITER = 100_000


def _closed_loop_return(z: np.ndarray, u: np.ndarray,
                        orbit: OrbitSpec) -> np.ndarray:
    """Return map with the nominal controller in the loop and the correction
    u added to the odd-instant inputs; this is the map the linearization and
    the closed-loop episodes both use.
    """
    *_, impulse, offset, _ = kernel(_on_section(z, orbit.spec), 1,
                                    orbit.instants[0], orbit.params)
    du_I, du_r = u.tolist()
    return poincare_map(z, impulse + du_I, offset + du_r, orbit)


def _fd_jacobian(orbit: OrbitSpec, z_star: np.ndarray, steps: np.ndarray,
                 scheme: str) -> np.ndarray:
    """[A | B]: one difference quotient of the closed-loop return map per
    input w = (z, u), about (z*, 0). The z-columns move plain floats; the
    u-columns and the forward base reuse the nominal command at z*.
    """
    w_star = [*z_star.tolist(), 0.0, 0.0]
    *_, impulse, offset, _ = kernel(_on_section(z_star, orbit.spec), 1,
                                    orbit.instants[0], orbit.params)

    def moved(i: int, step: float) -> np.ndarray:
        w = w_star.copy()
        w[i] += step
        if i < 5:
            return _closed_loop_return(w[:5], NO_CORRECTION, orbit)
        return poincare_map(w[:5], impulse + w[5], offset + w[6], orbit)

    if scheme == "forward":
        base = poincare_map(z_star, impulse, offset, orbit)
    J = np.empty((5, 7))
    # Python float steps keep numpy scalars, and numpy's **, out of the plant
    for i, step in enumerate(steps.tolist()):
        if scheme == "central":
            J[:, i] = (moved(i, step) - moved(i, -step)) / (2 * step)
        else:
            J[:, i] = (moved(i, step) - base) / step
    return J


def controllability(A: np.ndarray, B: np.ndarray) -> tuple[int, bool]:
    """Rank of [B, AB, ..., A^(n-1) B] by singular values; full rank means
    every section direction is steerable through the odd-instant inputs.
    """
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    ctrb = np.hstack(blocks)
    sv = np.linalg.svd(ctrb, compute_uv=False)
    thresh = sv[0] * n * np.finfo(float).eps * 1e3 if sv[0] > 0 else np.inf
    rank = int(np.sum(sv > thresh))
    return rank, rank == n


@np.errstate(all="ignore")  # inf and NaN end in a typed error below
def dlqr(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray,
         deadband: float = 1e-3) -> FeedbackGain:
    """Discrete LQR gain by Riccati fixed-point iteration.

    The minus sign is folded into K, so u = K e is the stabilizing feedback
    and all eigenvalues of A + B K lie strictly inside the unit circle.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    try:  # the symmetric part, exact for a symmetric R; Cholesky, unlike
        # eigvalsh, does not underflow on a wide one
        finite = np.isfinite(np.linalg.cholesky(R + 0.5 * (R.T - R))).all()
    except np.linalg.LinAlgError:
        finite = False
    if not finite:
        raise ValueError("R must be positive definite")
    P = riccati_solution(A, B, Q, R)
    try:
        K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    except np.linalg.LinAlgError as exc:
        raise RiccatiDiverged("R + B'PB is singular at the converged P") from exc
    closed = A + B @ K
    radius = (np.max(np.abs(np.linalg.eigvals(closed)))
              if np.isfinite(closed).all() else np.inf)
    if not radius < 1.0 - SPECTRAL_MARGIN:
        raise NotStabilizing(f"closed-loop spectral radius {radius:.6f} >= 1")
    return FeedbackGain(K=K, deadband=deadband)


@np.errstate(all="ignore")  # an inf or NaN P ends in RiccatiDiverged below
def riccati_solution(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
                     R: np.ndarray) -> np.ndarray:
    """Converged cost-to-go matrix of the Riccati fixed-point iteration."""
    P = np.asarray(Q, dtype=float).copy()
    At, Bt = A.T, B.T
    for step in range(RICCATI_MAX_ITER):
        BtP = Bt @ P
        try:
            K = -np.linalg.solve(R + BtP @ B, BtP @ A)
        except np.linalg.LinAlgError as exc:
            raise RiccatiDiverged(
                f"R + B'PB is singular at Riccati step {step}") from exc
        P_next = Q + At @ P @ (A + B @ K)
        if not abs(P_next).max() <= 1e100:  # also stops on NaN
            raise RiccatiDiverged("cost-to-go iteration blew up")
        if abs(P_next - P).max() < RICCATI_TOL:
            return P_next
        P = P_next
    raise RiccatiDiverged(f"no fixed point within {RICCATI_MAX_ITER} iterations")
