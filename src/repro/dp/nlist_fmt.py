"""Neighbor-list formatting: the paper's Sec 5.2.1 layout and Sec 5.2.2 codec.

The DP descriptor is permutationally invariant, so any neighbor order is
physically equivalent.  The optimized DeePMD-kit exploits this by fixing a
*canonical* order per atom:

1. sort neighbors by atomic type;
2. within each type, sort by distance (nearest first);
3. pad each type block to its cutoff count ``sel[t]`` with empty slots.

The padding removes per-neighbor type branching from the embedding-matrix
computation (every slot in a block has the same type), and distance sorting
guarantees that when an atom briefly has more neighbors of a type than
``sel[t]``, the *farthest* ones are dropped — avoiding the unphysical
artifacts Sec 5.2.1 warns about.

The 64-bit codec packs one neighbor record into an unsigned integer

    key = type * 10^15 + floor(dist * 10^8) * 10^5 + index

(4 digits of type, 10 of distance, 5 of index), so a scalar sort replaces a
struct sort.  Field-range violations (index >= 10^5, distance >= 100 Å,
type >= 10^4) raise instead of silently corrupting keys.

What :func:`format_neighbors` executes per step — one pass over the geometry,
every loop as long as the pair list:

1. measure displacement and distance once per *half* pair (the list may
   carry skin pairs) and keep those within ``rcut``;
2. mirror (i, j, r) to the directed list by concatenation — d(j, i) is
   bitwise d(i, j) — and drop centers beyond ``nloc``;
3. pack every directed entry into its key (all range checks apply);
4. group the keys by center atom into a ``(nloc, max degree)`` ``uint64``
   matrix padded with the largest key, and ``sort(axis=1)`` it — the paper's
   per-atom sort; afterwards row *a* holds atom *a*'s neighbors type block by
   type block, nearest first;
5. decode the index field (``key % 10^5``) and gather slot
   ``sel_start[t] + k`` from the k-th entry of the row's type-t run; runs
   longer than ``sel[t]`` lose their tail — the farthest neighbors — and are
   counted in ``n_dropped``.

``use_compression=False`` swaps steps 3–4 for a four-key record ``lexsort``
(exact float distances; the Sec 5.2 ablation contrast), and
:func:`format_neighbors_baseline` is the AoS tuple-sort layout model both are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.md.box import Box
from repro.md.neighbor import full_pairs
from repro.md.system import System

# Codec field scales (paper Sec 5.2.2).
_TYPE_SCALE = np.uint64(10**15)
_DIST_SCALE = np.uint64(10**5)
_DIST_QUANTUM = 1.0e8  # distance resolution: 1e-8 Å
_MAX_INDEX = 10**5
_MAX_DIST = 100.0  # Å, 10 digits of quantized distance
_MAX_TYPE = 10**4  # 4 digits

#: Marker for padded (empty) neighbor slots.
PAD = -1
# Fill of a key row; its type field (18446) is above the codec's 4 digits, so
# it sorts after every real key.
_PAD_KEY = np.iinfo(np.uint64).max


def compress_entries(
    types: np.ndarray, dists: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Pack (type, distance, index) records into uint64 sort keys."""
    types = np.asarray(types)
    dists = np.asarray(dists, dtype=np.float64)
    indices = np.asarray(indices)
    if indices.size and indices.max() >= _MAX_INDEX:
        raise ValueError(
            f"neighbor index {indices.max()} exceeds the codec's 5-digit field "
            f"(>= {_MAX_INDEX}); the paper notes this range is 'rarely exceeded' "
            f"per MPI sub-domain — shrink the sub-domain"
        )
    if indices.size and indices.min() < 0:
        raise ValueError("negative neighbor index cannot be encoded")
    if dists.size and dists.max() >= _MAX_DIST:
        raise ValueError(
            f"distance {dists.max():.3f} Å exceeds the codec's 10-digit field"
        )
    if types.size and (types.max() >= _MAX_TYPE or types.min() < 0):
        raise ValueError("atomic type outside the codec's 4-digit field")
    key = (
        types.astype(np.uint64) * _TYPE_SCALE
        + np.floor(dists * _DIST_QUANTUM).astype(np.uint64) * _DIST_SCALE
        + indices.astype(np.uint64)
    )
    return key


def decompress_entries(keys: np.ndarray):
    """Unpack uint64 keys back to (type, quantized distance, index)."""
    keys = np.asarray(keys, dtype=np.uint64)
    types = (keys // _TYPE_SCALE).astype(np.int64)
    rem = keys % _TYPE_SCALE
    dists = (rem // _DIST_SCALE).astype(np.float64) / _DIST_QUANTUM
    indices = (rem % _DIST_SCALE).astype(np.int64)
    return types, dists, indices


@dataclass
class FormattedNeighbors:
    """The padded, canonical neighbor layout consumed by the DP operators.

    Attributes
    ----------
    nlist:
        (nloc, nnei) int array of neighbor atom indices, PAD (-1) in empty
        slots.  Slot ranges [sel_start[t], sel_start[t+1]) hold type-t
        neighbors sorted by distance.
    sel:
        Neighbors retained per type (the paper: water [46, 92], Cu [500]).
    sel_start:
        Prefix offsets of the type blocks within a row.
    n_dropped:
        Number of true neighbors discarded because a type block overflowed
        ``sel[t]`` (distance sorting guarantees these are the farthest).
    """

    nlist: np.ndarray
    sel: tuple[int, ...]
    sel_start: tuple[int, ...]
    n_dropped: int = 0

    @property
    def nloc(self) -> int:
        return self.nlist.shape[0]

    @property
    def nnei(self) -> int:
        return self.nlist.shape[1]

    def mask(self) -> np.ndarray:
        """Boolean (nloc, nnei): True where a real neighbor occupies the slot."""
        return self.nlist != PAD

    def slot_types(self) -> np.ndarray:
        """(nnei,) type index of each slot in the canonical layout."""
        out = np.empty(self.nnei, dtype=np.int64)
        for t, s in enumerate(self.sel):
            out[self.sel_start[t] : self.sel_start[t] + s] = t
        return out


def _gather_raw(
    system: System,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    rcut: float,
    nloc: int,
    pbc: bool,
):
    """Per-pair (i, j, dist) within rcut, directed, centers restricted to
    the first ``nloc`` atoms (locals; the rest are ghosts).

    Distances are measured once per half pair and mirrored: d(j, i) is
    bitwise d(i, j) (negation and rounding are sign-symmetric), so the
    directed list is a concatenation, not a second measurement.
    """
    disp = np.take(system.positions, pair_j, axis=0)
    disp -= np.take(system.positions, pair_i, axis=0)
    if pbc:
        system.box.fold_minimum_image(disp)
    r = np.sqrt(np.einsum("ij,ij->i", disp, disp))
    keep = np.flatnonzero(r <= rcut)
    fi, fj = full_pairs(pair_i[keep], pair_j[keep])
    r = np.concatenate([r[keep], r[keep]])
    if nloc < system.n_atoms:
        keep = fi < nloc
        fi, fj, r = fi[keep], fj[keep], r[keep]
    return fi, fj, r


def _row_grouping(fi: np.ndarray, nloc: int) -> np.ndarray:
    """A permutation bringing equal centers together.  Rows are sorted
    afterwards, so the order inside a group is free and the cheapest sort
    numpy has for the input at hand will do: a stable argsort of 16-bit
    integers is a radix sort."""
    if nloc <= 1 << 16:
        return np.argsort(fi.astype(np.uint16), kind="stable")
    return np.argsort(fi)


def _center_rows(values: np.ndarray, order: np.ndarray, degree: np.ndarray, fill):
    """(nloc, max degree) matrix whose row a holds center a's ``values`` in
    ``order`` (a permutation that groups equal centers), ``fill`` after."""
    nloc, width = degree.size, int(degree.max())
    rows = np.full((nloc, width), fill, dtype=values.dtype)
    # Grouped entry n of center a lands in flat slot
    # a * width + (n - first grouped entry of a).
    shift = np.arange(nloc) * width - (np.cumsum(degree) - degree)
    rows.ravel()[np.arange(order.size) + np.repeat(shift, degree)] = values[order]
    return rows


def _take_type_blocks(rows: np.ndarray, count: np.ndarray, sel, sel_start):
    """Gather canonical rows into the padded slot layout.

    In a canonically ordered row the ``count[a, t]`` type-t entries are one
    contiguous run, nearest first, the runs in type order; slot
    ``sel_start[t] + k`` takes the k-th of them, so whatever overflows
    ``sel[t]`` is the farthest.  Returns the (nloc, nnei) gathered entries
    and the mask of slots that hold a real neighbor (the rest of the gather
    is arbitrary data from the matrix).
    """
    nloc, width = rows.shape
    run_start = np.cumsum(count, axis=1) - count
    slot_t = np.repeat(np.arange(len(sel)), sel)
    slot_k = np.arange(slot_t.size) - np.repeat(sel_start, sel)
    real = slot_k < count[:, slot_t]
    src = run_start[:, slot_t] + slot_k
    src += (np.arange(nloc) * width)[:, None]
    return np.take(rows.ravel(), src, mode="clip"), real


def format_neighbors(
    system: System,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    rcut: float,
    sel: Sequence[int],
    use_compression: bool = True,
    nloc: Optional[int] = None,
    pbc: bool = True,
    out: Optional[FormattedNeighbors] = None,
) -> FormattedNeighbors:
    """Build the canonical padded neighbor layout (the optimized path).

    ``pair_i/pair_j`` is a half list that may include skin pairs; distances
    are re-measured once per pair and filtered to ``rcut``.  When
    ``use_compression`` is True, each atom's neighbors are sorted as 64-bit
    scalar keys; otherwise an equivalent lexicographic record sort is used.
    Both produce the same canonical order — the codec exists for speed, not
    semantics (keys quantize distance to 1e-8 Å, so exact ties may order
    differently; physically equivalent by permutation invariance).

    ``nloc`` restricts descriptor rows to the first nloc atoms (the MPI-local
    atoms of Fig 1 (a)); neighbor indices may point into the ghost region.

    ``out`` recycles the ``nlist`` storage of a previous layout with the same
    shape and ``sel`` (the steady-state MD case: same atoms every rebuild),
    so per-step formatting allocates no new (nloc, nnei) array.  The contents
    are fully rewritten; a shape/sel mismatch falls back to fresh storage.
    """
    sel = tuple(int(s) for s in sel)
    if len(sel) != system.n_types:
        raise ValueError(f"sel has {len(sel)} entries for {system.n_types} types")
    nloc = system.n_atoms if nloc is None else int(nloc)
    nnei = int(sum(sel))
    sel_start = tuple(int(x) for x in np.concatenate([[0], np.cumsum(sel)[:-1]]))

    fi, fj, r = _gather_raw(system, pair_i, pair_j, rcut, nloc, pbc)
    tj = system.types[fj]

    if out is not None and out.sel == sel and out.nlist.shape == (nloc, nnei):
        nlist = out.nlist
    else:
        nlist = np.empty((nloc, nnei), dtype=np.int64)
    n_dropped = 0
    if fi.size == 0:
        nlist.fill(PAD)
    else:
        n_types = len(sel)
        count = np.bincount(
            fi * n_types + tj, minlength=nloc * n_types
        ).reshape(nloc, n_types)
        degree = count.sum(axis=1)
        if use_compression:
            # The paper's per-atom sort: one row of packed keys per center,
            # sorted as scalars (_PAD_KEY sorts after every real key), then
            # decoded to the index field.
            keys = compress_entries(tj, r, fj)
            rows = _center_rows(keys, _row_grouping(fi, nloc), degree, _PAD_KEY)
            rows.sort(axis=1)
            np.remainder(rows, _DIST_SCALE, out=rows)
        else:
            rows = _center_rows(fj, np.lexsort((fj, r, tj, fi)), degree, PAD)
        picked, real = _take_type_blocks(rows, count, sel, sel_start)
        nlist[...] = picked
        nlist[~real] = PAD
        n_dropped = int(np.maximum(count - np.asarray(sel), 0).sum())

    if out is not None and nlist is out.nlist:
        out.n_dropped = n_dropped
        return out
    return FormattedNeighbors(nlist=nlist, sel=sel, sel_start=sel_start, n_dropped=n_dropped)


def format_neighbors_baseline(
    system: System,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    rcut: float,
    sel: Sequence[int],
    nloc: Optional[int] = None,
    pbc: bool = True,
) -> FormattedNeighbors:
    """Reference AoS implementation: per-atom Python lists of (type, dist, j)
    records sorted with tuple comparison — the pre-optimization data path.

    Exists for Table 3 / Sec 5.2 benchmarking and as a differential-testing
    oracle for :func:`format_neighbors`.
    """
    sel = tuple(int(s) for s in sel)
    nloc = system.n_atoms if nloc is None else int(nloc)
    nnei = int(sum(sel))
    sel_start = list(np.concatenate([[0], np.cumsum(sel)[:-1]]).astype(int))

    fi, fj, r = _gather_raw(system, pair_i, pair_j, rcut, nloc, pbc)
    records: list[list[tuple]] = [[] for _ in range(nloc)]
    for a, b, dist in zip(fi.tolist(), fj.tolist(), r.tolist()):
        records[a].append((int(system.types[b]), dist, b))

    nlist = np.full((nloc, nnei), PAD, dtype=np.int64)
    n_dropped = 0
    for a in range(nloc):
        records[a].sort()
        fill = [0] * len(sel)
        for t, _dist, b in records[a]:
            if fill[t] < sel[t]:
                nlist[a, sel_start[t] + fill[t]] = b
                fill[t] += 1
            else:
                n_dropped += 1
    return FormattedNeighbors(
        nlist=nlist, sel=sel, sel_start=tuple(sel_start), n_dropped=n_dropped
    )
