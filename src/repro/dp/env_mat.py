"""The smoothed environment matrix R~ — the DP descriptor's raw input.

For center atom i and neighbor j at displacement d = r_j - r_i, |d| = r:

    s(r) = 1/r                            r <  r_smth
         = (1/r) * S(u)                   r_smth <= r < r_cut
         = 0                              r >= r_cut

with u = (r - r_smth)/(r_cut - r_smth) and the quintic switch
S(u) = u^3(-6u^2 + 15u - 10) + 1 (C^2 at both ends).  The row of R~ is

    (s(r),  s(r)·x/r,  s(r)·y/r,  s(r)·z/r).

:func:`env_row_and_deriv` also returns dR~/dd — the (4, 3) Jacobian w.r.t.
the *neighbor* position — which ProdForce/ProdVirial consume.  Everything
here is plain math shared by the baseline and optimized operator sets.
"""

from __future__ import annotations

import numpy as np


def smooth_weight(r: np.ndarray, r_smth: float, r_cut: float):
    """s(r) and ds/dr, vectorized; r may contain zeros (padded slots)."""
    r = np.asarray(r, dtype=np.float64)
    real = r > 0
    safe_r = np.where(real, r, 1.0)
    inv_r = np.where(real, 1.0 / safe_r, 0.0)

    s = inv_r.copy()
    ds = -inv_r * inv_r  # d(1/r)/dr

    # Flat indices of the switch region (take/put work on the flattened
    # array, whatever the shape of r).
    mid = np.flatnonzero((r >= r_smth) & (r < r_cut))
    inv_mid = np.take(inv_r, mid)
    u = (np.take(r, mid) - r_smth) / (r_cut - r_smth)
    sw = u**3 * (-6.0 * u**2 + 15.0 * u - 10.0) + 1.0
    dsw = -30.0 * u**2 * (u - 1.0) ** 2 / (r_cut - r_smth)
    np.put(s, mid, inv_mid * sw)
    np.put(ds, mid, -inv_mid ** 2 * sw + inv_mid * dsw)

    dead = (r >= r_cut) | (r <= 0)
    s = np.where(dead, 0.0, s)
    ds = np.where(dead, 0.0, ds)
    return s, ds


def env_rows(
    disp: np.ndarray,
    r_smth: float,
    r_cut: float,
    out_rows: np.ndarray | None = None,
    out_deriv: np.ndarray | None = None,
):
    """Environment rows and derivatives for displacement vectors.

    Parameters
    ----------
    disp:
        (..., 3) displacements d = r_j - r_i; zero rows mean padded slots.
    out_rows, out_deriv:
        Optional preallocated destinations of shape (..., 4) and (..., 4, 3).
        Every element is overwritten, so stale contents are harmless — this is
        what lets the batched evaluation engine keep persistent scratch
        buffers instead of reallocating per step.

    Returns
    -------
    rows:
        (..., 4) — the R~ rows.
    deriv:
        (..., 4, 3) — d rows / d d (derivative w.r.t. neighbor position).
    r:
        (...,) distances.
    """
    disp = np.asarray(disp, dtype=np.float64)
    lead = disp.shape[:-1]
    r = np.sqrt(np.einsum("...i,...i->...", disp, disp))
    s, ds = smooth_weight(r, r_smth, r_cut)
    rows = out_rows if out_rows is not None else np.empty(lead + (4,))
    deriv = out_deriv if out_deriv is not None else np.empty(lead + (4, 3))

    # Component-wise (SoA): every operand below is one contiguous vector over
    # the slots, every output component one strided write.  The operation
    # order per element is fixed — results are compared bitwise across
    # engines, batch compositions and PRs.
    real = r > 0
    safe_r = np.where(real, r, 1.0)
    mask = (real & (r < r_cut)).astype(np.float64)
    s_over_r = s / safe_r  # s is 0 where r is, so no guard is needed
    u = []  # unit vector components; zero rows stay finite
    for c in range(3):
        u.append(np.where(real, disp[..., c] / safe_r, 0.0))

    rows[..., 0] = s
    for c in range(3):
        np.multiply(s, u[c], out=rows[..., 1 + c])

    # dR0/dd_k = ds/dr * u_k
    # dRc/dd_k = ds/dr u_c u_k + s (δ_ck - u_c u_k)/r
    ds_u = [ds * u_c for u_c in u]
    for k in range(3):
        np.multiply(ds_u[k], mask, out=deriv[..., 0, k])
    radial = np.empty(lead)
    tangential = np.empty(lead)
    for c in range(3):
        for k in range(c, 3):
            # s/r (δ_ck - u_c u_k) is symmetric in (c, k); (ds u_c) u_k is
            # not (it rounds differently from (ds u_k) u_c).
            np.multiply(u[c], u[k], out=tangential)
            np.subtract(1.0 if c == k else 0.0, tangential, out=tangential)
            np.multiply(s_over_r, tangential, out=tangential)
            for a, b in {(c, k), (k, c)}:
                np.multiply(ds_u[a], u[b], out=radial)
                np.add(radial, tangential, out=radial)
                np.multiply(radial, mask, out=deriv[..., 1 + a, b])
    return rows, deriv, r
