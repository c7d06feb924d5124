"""Optimized customized operators: Environment, ProdForce, ProdVirial.

These are the GPU kernels of Sec 5.2.2, reproduced as fully vectorized NumPy
on the padded canonical layout from :mod:`repro.dp.nlist_fmt` — no
per-neighbor branching, contiguous SoA arrays, scatter-adds for force
accumulation.  They are also registered as tfmini graph operators (with
VJPs w.r.t. the network derivative) so force-matching training can backprop
through them.
"""

from __future__ import annotations

import numpy as np

from repro.dp.env_mat import env_rows
from repro.dp.nlist_fmt import PAD, FormattedNeighbors
from repro.md.system import System
from repro.tfmini.graph import Node
from repro.tfmini.ops import register_op


def environment_op(
    system: System,
    fmt: FormattedNeighbors,
    r_smth: float,
    r_cut: float,
    pbc: bool = True,
    out: tuple | None = None,
):
    """Compute R~, dR~/dd, and rij for every (atom, slot).

    ``out``, when given, is an ``(em, em_deriv, rij)`` triple of preallocated
    destination arrays (e.g. slices of the batched engine's persistent scratch
    buffers); every element is overwritten and the same arrays are returned.

    Returns
    -------
    em:       (nloc, nnei, 4)
    em_deriv: (nloc, nnei, 4, 3)
    rij:      (nloc, nnei, 3)   displacements r_j - r_i (zero in padded slots)
    """
    nlist = fmt.nlist
    nloc = nlist.shape[0]
    # Padded slots gather their own center, so their displacement is an
    # exact zero without a masking pass.
    safe = np.where(nlist != PAD, nlist, np.arange(nloc)[:, None])
    rij = None if out is None else out[2]
    rij = np.take(system.positions, safe, axis=0, out=rij)
    rij -= system.positions[:nloc, None, :]
    if pbc:
        system.box.fold_minimum_image(rij)
    if out is None:
        em, em_deriv, _r = env_rows(rij, r_smth, r_cut)
        return em, em_deriv, rij
    env_rows(rij, r_smth, r_cut, out_rows=out[0], out_deriv=out[1])
    return out[0], out[1], rij


def scatter_forces(
    slot: np.ndarray, nlist: np.ndarray, atom_idx: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Scatter the per-slot derivative ``slot = Σ_c nd·ed`` (dE/dd_ij, shape
    ``(rows, nnei, 3)``) into the force array ``out``, which is overwritten.

    For slot (i, jj) with neighbor j:  F_i += slot[i,jj]  and  F_j -= the
    same (since dR~/dr_i = -dR~/dr_j); ``atom_idx`` maps each row back to
    its atom.  The one accumulation order of every force in the repo — the
    graph's ``prod_force`` kernels and the batched engine, which assembles
    forces outside its plan from the ``slot`` it shares with the virial —
    so ``evaluate_serial`` and the engine agree bit for bit.

    That order is: from zero, the centre contributions in row order, then
    the neighbour contributions in slot order — one ``np.bincount`` per
    component over the concatenated ids, which accumulates exactly as the
    two ``np.add.at`` passes it replaces did, in 0.35-0.45 of their time.
    Padded slots are counted into a spare bin 0 (every id is shifted by
    one) and dropped: each atom's sequence of addends is what masking them
    out would give, without the boolean gathers.
    """
    n, rows = len(out), len(atom_idx)
    ids = np.concatenate(
        [atom_idx, np.where(nlist != PAD, nlist, -1).reshape(-1)]
    )
    ids += 1
    weights = np.empty((3, ids.size))  # one contiguous row per component
    weights[:, :rows] = slot.sum(axis=1).T
    np.negative(slot.reshape(-1, 3).T, out=weights[:, rows:])
    for k in range(3):
        sums = np.bincount(ids, weights=weights[k], minlength=n + 1)
        if len(sums) != n + 1:  # np.add.at raised this too
            raise IndexError(
                f"neighbor or atom index {len(sums) - 2} out of range for "
                f"{n} atoms"
            )
        out[:, k] = sums[1:]
    return out


def prod_force_op(
    net_deriv: np.ndarray,
    em_deriv: np.ndarray,
    nlist: np.ndarray,
    atom_idx: np.ndarray,
    natoms: int,
) -> np.ndarray:
    """Assemble forces from dE/dR~ (Sec 5.2.2's ProdForce).

    ``net_deriv`` rows are in the model's (type-sorted) atom order;
    ``atom_idx`` maps each row back to its original atom index.
    """
    slot = np.einsum("ijc,ijck->ijk", net_deriv, em_deriv)
    return scatter_forces(slot, nlist, atom_idx, np.empty((natoms, 3)))


def prod_virial_op(
    net_deriv: np.ndarray,
    em_deriv: np.ndarray,
    rij: np.ndarray,
    nlist: np.ndarray,
) -> np.ndarray:
    """Assemble the virial tensor from dE/dR~ (Sec 5.2.2's ProdVirial).

    W = -Σ_slots d_ij ⊗ (dE/dd_ij) with d_ij = r_j - r_i.
    """
    slot = np.einsum("ijc,ijck->ijk", net_deriv, em_deriv)  # dE/dd per slot
    return -np.einsum("ija,ijb->ab", rij, slot)


# ---------------------------------------------------------------------------
# tfmini graph registration (training path)
# ---------------------------------------------------------------------------


def _fwd_prod_force(inputs, attrs):
    net_deriv, em_deriv, nlist, atom_idx, natoms_vec = inputs
    return prod_force_op(
        net_deriv, em_deriv, nlist.astype(np.int64), atom_idx.astype(np.int64),
        int(natoms_vec.reshape(-1)[0]),
    )


def _vjp_prod_force(node, g):
    # Only the network derivative is a differentiation path; geometry inputs
    # (em_deriv, nlist, atom_idx) are constants w.r.t. model parameters.
    nd, ed, nlist, aidx, nvec = node.inputs
    return [Node("prod_force_grad", (g, ed, nlist, aidx)), None, None, None, None]


def _fwd_prod_force_grad(inputs, attrs):
    g, em_deriv, nlist, atom_idx = inputs
    nlist = nlist.astype(np.int64)
    atom_idx = atom_idx.astype(np.int64)
    # dL/dnd[i,jj,c] = Σ_k ed[i,jj,c,k] (g[center_i,k] - g[j,k])
    mask = nlist != PAD
    safe = np.where(mask, nlist, 0)
    g_nb = np.where(mask[..., None], g[safe], 0.0)
    diff = g[atom_idx][:, None, :] - g_nb  # (nloc, nnei, 3)
    return np.einsum("ijck,ijk->ijc", em_deriv, diff)


def _out_prod_force(inputs, attrs, out):
    net_deriv, em_deriv, nlist, atom_idx, _natoms_vec = inputs
    slot = np.einsum("ijc,ijck->ijk", net_deriv, em_deriv)
    scatter_forces(slot, nlist.astype(np.int64), atom_idx.astype(np.int64), out)


def _out_prod_force_grad(inputs, attrs, out):
    g, em_deriv, nlist, atom_idx = inputs
    nlist = nlist.astype(np.int64)
    atom_idx = atom_idx.astype(np.int64)
    mask = nlist != PAD
    safe = np.where(mask, nlist, 0)
    g_nb = np.where(mask[..., None], g[safe], 0.0)
    diff = g[atom_idx][:, None, :] - g_nb
    np.einsum("ijck,ijk->ijc", em_deriv, diff, out=out)


def _inf_prod_force(shapes, dtypes, attrs, ctx):
    nd, ed = shapes[0], shapes[1]
    # nd is (nloc, nnei, 4); em_deriv is (nloc, nnei, 4, 3).
    if len(nd) != 3 or len(ed) != 4:
        ctx.fail(f"prod_force expects 3-D/4-D inputs, got ranks {len(nd)}/{len(ed)}")
    ctx.unify_shapes(nd, ed[:3], "prod_force net_deriv/em_deriv")
    ctx.unify(ed[3], 3, "prod_force displacement components")
    # Output rows come from the *value* of the natoms feed (input 4) —
    # the scatter target covers ghosts too, not just the nd rows.
    rows = ctx.value(4)
    if rows is None:
        rows = ctx.fresh("natoms")
        ctx.note("prod_force output rows unknown (natoms value unbound)")
    return (rows, 3), np.promote_types(dtypes[0], dtypes[1])


def _inf_prod_force_grad(shapes, dtypes, attrs, ctx):
    g, ed = shapes[0], shapes[1]
    if len(g) != 2 or len(ed) != 4:
        ctx.fail(f"prod_force_grad expects 2-D/4-D inputs, got ranks {len(g)}/{len(ed)}")
    ctx.unify(g[1], 3, "prod_force_grad force components")
    return ed[:3], np.promote_types(dtypes[0], dtypes[1])


register_op(
    "prod_force",
    _fwd_prod_force,
    vjp=_vjp_prod_force,
    flops=lambda node, ins, out: ins[0].size * 3 * 2,
    forward_out=_out_prod_force,
    infer=_inf_prod_force,
)
register_op(
    "prod_force_grad",
    _fwd_prod_force_grad,
    # Second-order: linear in g, so its VJP is prod_force applied to the
    # cotangent — but training never needs third derivatives; omit.
    flops=lambda node, ins, out: out.size * 3 * 2,
    forward_out=_out_prod_force_grad,
    infer=_inf_prod_force_grad,
)


def _fwd_prod_virial(inputs, attrs):
    net_deriv, em_deriv, rij, nlist = inputs
    return prod_virial_op(net_deriv, em_deriv, rij, nlist.astype(np.int64))


def _vjp_prod_virial(node, g):
    nd, ed, rij, nlist = node.inputs
    return [Node("prod_virial_grad", (g, ed, rij)), None, None, None]


def _fwd_prod_virial_grad(inputs, attrs):
    g, em_deriv, rij = inputs
    # dL/dnd[i,jj,c] = -Σ_{a,b} g[a,b] rij[i,jj,a] ed[i,jj,c,b]
    return -np.einsum("ab,ija,ijcb->ijc", g, rij, em_deriv)


def _out_prod_virial(inputs, attrs, out):
    net_deriv, em_deriv, rij, _nlist = inputs
    slot = np.einsum("ijc,ijck->ijk", net_deriv, em_deriv)
    np.einsum("ija,ijb->ab", rij, slot, out=out)
    np.negative(out, out=out)


def _out_prod_virial_grad(inputs, attrs, out):
    g, em_deriv, rij = inputs
    np.einsum("ab,ija,ijcb->ijc", g, rij, em_deriv, out=out)
    np.negative(out, out=out)


def _inf_prod_virial(shapes, dtypes, attrs, ctx):
    nd, ed, rij = shapes[0], shapes[1], shapes[2]
    if len(nd) != 3 or len(ed) != 4 or len(rij) != 3:
        ctx.fail(
            "prod_virial expects 3-D/4-D/3-D inputs, got ranks "
            f"{len(nd)}/{len(ed)}/{len(rij)}"
        )
    ctx.unify_shapes(nd, ed[:3], "prod_virial net_deriv/em_deriv")
    ctx.unify_shapes(rij, (ed[0], ed[1], 3), "prod_virial rij")
    return (3, 3), np.promote_types(np.promote_types(dtypes[0], dtypes[1]), dtypes[2])


def _inf_prod_virial_grad(shapes, dtypes, attrs, ctx):
    g, ed, rij = shapes[0], shapes[1], shapes[2]
    if len(g) != 2 or len(ed) != 4:
        ctx.fail(
            f"prod_virial_grad expects 2-D/4-D inputs, got ranks {len(g)}/{len(ed)}"
        )
    ctx.unify_shapes(g, (3, 3), "prod_virial_grad cotangent")
    return ed[:3], np.promote_types(np.promote_types(dtypes[0], dtypes[1]), dtypes[2])


register_op(
    "prod_virial",
    _fwd_prod_virial,
    vjp=_vjp_prod_virial,
    flops=lambda node, ins, out: ins[0].size * 9 * 2,
    forward_out=_out_prod_virial,
    infer=_inf_prod_virial,
    # W sums over every slot: padded slots contribute exact zeros through
    # em_deriv, so the neighbor list itself is never consulted.
    shape_only=(3,),
)
register_op(
    "prod_virial_grad",
    _fwd_prod_virial_grad,
    flops=lambda node, ins, out: out.size * 9 * 2,
    forward_out=_out_prod_virial_grad,
    infer=_inf_prod_virial_grad,
)
