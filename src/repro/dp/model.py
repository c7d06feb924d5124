"""DeepPot: the Deep Potential (se_a) model with double/mixed precision.

The model follows Fig 1 of the paper exactly:

1. the formatted neighbor list (Sec 5.2.1 layout) feeds the Environment
   operator, producing the environment matrix R~ and its derivative;
2. R~ is normalized by data statistics (davg/dstd, as in DeePMD-kit);
3. the s(r) column passes through per-neighbor-type embedding nets G;
4. the symmetry-preserving descriptor D_i = (G^T R~)(R~^T G<)/nnei^2 feeds a
   per-center-type fitting net that outputs the atomic energy E_i;
5. E = Σ E_i; forces and virial come from ProdForce/ProdVirial applied to
   dE/dR~ (computed by graph backprop, like TensorFlow's tf.gradients).

Precision (Sec 5.2.3): in ``mixed`` mode the network parameters are fp32 and
R~ is cast to fp32 at the network boundary, while positions, the environment
matrix construction, atomic-energy reduction and force assembly stay fp64.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

import repro.tfmini as tf
from repro.dp import ops_optimized  # registers prod_force/prod_virial ops
from repro.dp.network import (
    NetworkParams,
    apply_embedding,
    apply_fitting,
    build_embedding_params,
    build_fitting_params,
)
from repro.dp.nlist_fmt import FormattedNeighbors, format_neighbors
from repro.dp.ops_baseline import environment_baseline
from repro.dp.ops_optimized import environment_op
from repro.md.potential import PotentialResult
from repro.md.system import System
from repro.tfmini.graph import Node, Variable
from repro.tfmini.ops import expand_rows
from repro.tfmini.ops import scale as tf_scale
from repro.tfmini.ops import slice_axis, take_rows


@dataclass
class DPConfig:
    """Hyper-parameters of a DP model (defaults: the paper's water model)."""

    type_names: tuple[str, ...] = ("O", "H")
    rcut: float = 6.0
    rcut_smth: float = 0.5
    sel: tuple[int, ...] = (46, 92)
    embedding_layers: tuple[int, ...] = (25, 50, 100)
    axis_neuron: int = 16
    fitting_layers: tuple[int, ...] = (240, 240, 240)
    precision: str = "double"  # "double" | "mixed"
    optimize_graph: bool = True
    use_compression: bool = True  # 64-bit neighbor codec (Sec 5.2.2)
    # True: one embedding net per neighbor type; False: one per
    # (center, neighbor) type pair — DeePMD-kit's default for water.
    type_one_side: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.precision not in ("double", "mixed"):
            raise ValueError(f"precision must be 'double' or 'mixed', got {self.precision!r}")
        if len(self.sel) != len(self.type_names):
            raise ValueError("sel must have one entry per atom type")
        if self.axis_neuron > self.embedding_layers[-1]:
            raise ValueError("axis_neuron cannot exceed the embedding width")

    @property
    def n_types(self) -> int:
        return len(self.type_names)

    @property
    def nnei(self) -> int:
        return int(sum(self.sel))

    @property
    def compute_dtype(self):
        return np.float32 if self.precision == "mixed" else np.float64

    @staticmethod
    def paper_water(**overrides) -> "DPConfig":
        """The paper's water model (Sec 6.1)."""
        return replace(DPConfig(), **overrides)

    @staticmethod
    def paper_copper(**overrides) -> "DPConfig":
        """The paper's copper model (Sec 6.1): r_c = 8 Å, sel = [500]."""
        cfg = DPConfig(
            type_names=("Cu",),
            rcut=8.0,
            rcut_smth=2.0,
            sel=(500,),
        )
        return replace(cfg, **overrides)

    @staticmethod
    def tiny(type_names=("O", "H"), sel=(12, 24), rcut=4.0, **overrides) -> "DPConfig":
        """Laptop-scale hyper-parameters for tests and quick examples."""
        cfg = DPConfig(
            type_names=tuple(type_names),
            rcut=rcut,
            rcut_smth=0.5 * rcut,
            sel=tuple(sel),
            embedding_layers=(8, 16, 32),
            axis_neuron=4,
            fitting_layers=(32, 32, 32),
        )
        return replace(cfg, **overrides)


class DeepPot:
    """A Deep Potential model: build once, evaluate on any system snapshot."""

    def __init__(self, config: DPConfig, rng: Optional[np.random.Generator] = None):
        self.config = config
        rng = rng or np.random.default_rng(config.seed)
        dtype = config.compute_dtype

        # --- parameters -------------------------------------------------------
        # one embedding net per neighbor type (type_one_side) or per
        # (center, neighbor) pair, stored flat as [t_center * n_types + b]
        n_embed = (
            config.n_types if config.type_one_side else config.n_types**2
        )
        self.embedding_params: list[NetworkParams] = [
            build_embedding_params(
                rng, config.embedding_layers, dtype, name=f"embed_{k}"
            )
            for k in range(n_embed)
        ]
        m1 = config.embedding_layers[-1]
        self.fitting_params: list[NetworkParams] = [
            build_fitting_params(
                rng,
                m1 * config.axis_neuron,
                config.fitting_layers,
                dtype,
                name=f"fit_t{t}",
            )
            for t in range(config.n_types)
        ]
        # Per-type energy bias (data statistic, not trained) and R~ statistics.
        self.e0 = np.zeros(config.n_types)
        self.davg = np.zeros((config.n_types, 4))
        self.dstd = np.ones((config.n_types, 4))

        self._build_graph()
        self.session = tf.Session(profile=False)
        self._batched = None  # lazily-built default BatchedEvaluator

    # ------------------------------------------------------------------ graph

    def _atom_energies(self, t: int, r_t: Node, rows: Optional[Sequence[Node]]) -> Node:
        """Graph body of centre type ``t``: environment rows -> atomic energies.

        ``rows`` is ``None`` for the padded graph: the embedding net of each
        neighbour type runs on every one of its ``sel`` slots.  Otherwise
        ``rows[b]`` lists, per section (``t``, neighbour type ``b``), the
        slots the net is run on (``take_rows``) and ``expand_rows`` fills the
        rest of ``G`` with the row of the last listed slot — a padded one,
        whose ``s`` every unlisted slot shares — so everything from the
        ``R~^T G`` contraction on sees the same padded matrix either way.
        """
        cfg = self.config
        dtype = cfg.compute_dtype
        nnei = cfg.nnei
        m1 = cfg.embedding_layers[-1]
        m2 = cfg.axis_neuron
        r_net = tf.cast(r_t, dtype) if dtype != np.float64 else r_t

        # s(r) column -> per-neighbor-type embedding blocks
        s_col = slice_axis(r_net, 2, 0, 1)  # (n_t, nnei, 1)
        g_blocks: list[Node] = []
        for b in range(cfg.n_types):
            start = int(np.sum(cfg.sel[:b]))
            stop = start + cfg.sel[b]
            s_b = slice_axis(s_col, 1, start, stop)
            s_2d = tf.reshape(s_b, (-1, 1))
            emb_idx = b if cfg.type_one_side else t * cfg.n_types + b
            params = self.embedding_params[emb_idx]
            if rows is None:
                g_2d = apply_embedding(params, s_2d, cfg.embedding_layers)
            else:
                g_2d = expand_rows(
                    apply_embedding(
                        params, take_rows(s_2d, rows[b]), cfg.embedding_layers
                    ),
                    rows[b],
                    like=s_2d,
                )
            g_blocks.append(tf.reshape(g_2d, (-1, cfg.sel[b], m1)))
        g = g_blocks[0]
        for blk in g_blocks[1:]:
            g = tf.concat(g, blk, axis=1)  # (n_t, nnei, m1)

        # D = (R~^T G)^T (R~^T G)[:, :m2] / nnei^2
        t_mat = tf_scale(
            tf.bmm(tf.transpose(r_net, (0, 2, 1)), g), 1.0 / nnei
        )  # (n_t, 4, m1)
        t2 = slice_axis(t_mat, 2, 0, m2)  # (n_t, 4, m2)
        d_mat = tf.bmm(tf.transpose(t_mat, (0, 2, 1)), t2)  # (n_t, m1, m2)
        d_flat = tf.reshape(d_mat, (-1, m1 * m2))

        fit_out = apply_fitting(self.fitting_params[t], d_flat, cfg.fitting_layers)
        e_atom = tf.cast(fit_out, np.float64) if dtype != np.float64 else fit_out
        return tf.reshape(e_atom, (-1,))

    def _build_graph(self) -> None:
        cfg = self.config
        types = range(cfg.n_types)

        self.ph_env: list[Node] = [
            tf.placeholder(f"env_t{t}", dtype=np.float64) for t in types
        ]
        # Row listings of the compacted graph, one per (centre type,
        # neighbour type) section, flat as [t * n_types + b].
        self.ph_rows: list[Node] = [
            tf.placeholder(f"rows_t{t}_b{b}", dtype=np.int64)
            for t in types for b in types
        ]

        def energy_and_derivs(rows_of):
            e_atoms = [
                self._atom_energies(t, self.ph_env[t], rows_of(t)) for t in types
            ]
            e_totals = [tf.reduce_sum(e) for e in e_atoms]
            energy = e_totals[0]
            for e in e_totals[1:]:
                energy = tf.add(energy, e)
            # backprop to the environment matrix: dE/dR~
            return e_atoms, energy, tf.grad(energy, self.ph_env)

        # The padded graph: what evaluate_serial, the ``use_plan=False``
        # engine and the Trainer run — the oracle.
        e_atom_nodes, energy, net_derivs = energy_and_derivs(lambda t: None)
        self.node_e_atoms: list[Node] = e_atom_nodes
        self.node_energy = energy
        nd = net_derivs[0]
        for other in net_derivs[1:]:
            nd = tf.concat(nd, other, axis=0)  # rows in type-sorted order

        self.ph_em_deriv = tf.placeholder("em_deriv", dtype=np.float64)
        self.ph_rij = tf.placeholder("rij", dtype=np.float64)
        self.ph_nlist = tf.placeholder("nlist", dtype=np.int64)
        self.ph_atom_idx = tf.placeholder("atom_idx", dtype=np.int64)
        self.ph_natoms = tf.placeholder("natoms", dtype=np.int64)

        self.node_forces = Node(
            "prod_force",
            (nd, self.ph_em_deriv, self.ph_nlist, self.ph_atom_idx, self.ph_natoms),
        )
        self.node_virial = Node(
            "prod_virial", (nd, self.ph_em_deriv, self.ph_rij, self.ph_nlist)
        )
        self.node_net_deriv = nd

        # The compacted graph: the same body with every embedding net run
        # on its listed slots only.  The batched engine's plan fetches its
        # per-type dE/dR~ blocks and atomic energies (and assembles forces
        # and virials per replica outside the graph).
        n = cfg.n_types
        e_atoms_c, _energy_c, net_derivs_c = energy_and_derivs(
            lambda t: self.ph_rows[t * n : (t + 1) * n]
        )

        # One rewrite over every fetch keeps one DAG (and one set of leaves)
        # shared by every execution path.
        fetches = [
            self.node_energy,
            self.node_forces,
            self.node_virial,
            self.node_net_deriv,
        ] + list(self.node_e_atoms) + list(e_atoms_c) + list(net_derivs_c)
        if cfg.optimize_graph:
            fetches = tf.optimize_graph(fetches)
        (
            self._f_energy,
            self._f_forces,
            self._f_virial,
            self._f_net_deriv,
        ) = fetches[:4]
        self._f_e_atoms = fetches[4 : 4 + n]
        self._f_e_atoms_compact = fetches[4 + n : 4 + 2 * n]
        self._f_net_derivs_compact = fetches[4 + 2 * n :]

    # ------------------------------------------------------------------ stats

    def trainable_variables(self) -> list[Variable]:
        out: list[Variable] = []
        for p in self.embedding_params + self.fitting_params:
            out.extend(p.variables())
        return out

    def param_count(self) -> int:
        return sum(v.value.size for v in self.trainable_variables())

    def param_nbytes(self) -> int:
        """Parameter memory — the Sec 7.1.3 '50% less memory' measurement."""
        return sum(v.value.nbytes for v in self.trainable_variables())

    def set_stats(self, davg: np.ndarray, dstd: np.ndarray, e0: np.ndarray) -> None:
        self.davg = np.asarray(davg, dtype=np.float64).reshape(self.config.n_types, 4)
        self.dstd = np.asarray(dstd, dtype=np.float64).reshape(self.config.n_types, 4)
        if np.any(self.dstd <= 0):
            raise ValueError("dstd entries must be positive")
        self.e0 = np.asarray(e0, dtype=np.float64).reshape(self.config.n_types)

    # ------------------------------------------------------------------ feeds

    def prepare_feeds(
        self,
        system: System,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        backend: str = "optimized",
        fmt: Optional[FormattedNeighbors] = None,
        nloc: Optional[int] = None,
        pbc: bool = True,
    ):
        """Format neighbors, build the (normalized) environment, sort by type.

        ``nloc`` restricts descriptor rows to the first nloc atoms (MPI-local
        atoms; the rest of the system is the ghost region) and ``pbc=False``
        uses raw displacements — the domain-decomposition mode.

        Returns (feeds dict, order array) where ``order`` maps sorted rows to
        original atom indices.
        """
        cfg = self.config
        nloc = system.n_atoms if nloc is None else int(nloc)
        if fmt is None:
            fmt = format_neighbors(
                system, pair_i, pair_j, cfg.rcut, cfg.sel,
                use_compression=cfg.use_compression, nloc=nloc, pbc=pbc,
            )
        if backend == "optimized":
            em, ed, rij = environment_op(system, fmt, cfg.rcut_smth, cfg.rcut, pbc=pbc)
        elif backend == "baseline":
            em, ed, rij = environment_baseline(
                system, fmt, cfg.rcut_smth, cfg.rcut, pbc=pbc
            )
        else:
            raise ValueError(f"unknown backend {backend!r}")

        slot_t = fmt.slot_types()
        davg = self.davg[slot_t]  # (nnei, 4)
        dstd = self.dstd[slot_t]
        em_n = (em - davg) / dstd
        ed_n = ed / dstd[..., None]

        local_types = system.types[:nloc]
        order = np.argsort(local_types, kind="stable")
        feeds = {}
        for t in range(cfg.n_types):
            idx_t = order[local_types[order] == t]
            feeds[self.ph_env[t]] = em_n[idx_t]
        feeds[self.ph_em_deriv] = ed_n[order]
        feeds[self.ph_rij] = rij[order]
        feeds[self.ph_nlist] = fmt.nlist[order]
        feeds[self.ph_atom_idx] = order
        feeds[self.ph_natoms] = np.array([system.n_atoms], dtype=np.int64)
        return feeds, order

    # --------------------------------------------------------------- evaluate

    @property
    def batched(self):
        """The model's default batched evaluation engine (R=1 fast path).

        Drivers that batch many replicas (:class:`repro.md.ensemble.
        EnsembleSimulation`) should construct their own
        :class:`~repro.dp.batch.BatchedEvaluator` so scratch-buffer shapes
        (and the engine's compiled-plan arena) stay steady instead of
        thrashing between batch sizes.
        """
        if self._batched is None:
            from repro.dp.batch import BatchedEvaluator

            self._batched = BatchedEvaluator(self)
        return self._batched

    def evaluate(
        self,
        system: System,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        nloc: Optional[int] = None,
        pbc: bool = True,
    ) -> PotentialResult:
        """Energy of the first ``nloc`` atoms + forces on all atoms.

        Routes through the batched engine as an R=1 stack — the single-replica
        MD path and the multi-replica ensemble path share one executor (a
        compiled execution plan over the post-fusion graph, see
        :mod:`repro.tfmini.plan`), and the results are bitwise identical to
        :meth:`evaluate_serial` (the ``Session.run`` reference path, kept
        for differential testing).

        In domain-decomposition mode (nloc < n_atoms) the returned forces
        array covers locals *and* ghosts; the caller reverse-communicates the
        ghost part (Sec 5.4), and ``energy``/``atom_energies`` cover locals
        only.
        """
        return self.batched.evaluate_batch(
            [system],
            [(pair_i, pair_j)],
            nlocs=None if nloc is None else [nloc],
            pbc=pbc,
        )[0]

    def evaluate_serial(
        self,
        system: System,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        backend: str = "optimized",
        nloc: Optional[int] = None,
        pbc: bool = True,
    ) -> PotentialResult:
        """The original single-frame path: per-call feeds, in-graph ProdForce/
        ProdVirial, uncompiled ``Session.run`` execution.  Reference oracle
        for the batched engine's (compiled-plan) R=1 results, and — with
        ``backend="baseline"`` — the only route to Table 3's unoptimized
        Environment operator (:mod:`repro.dp.ops_baseline`): the paper's
        baseline is a column of a measurement, not a switch on the engine."""
        nloc = system.n_atoms if nloc is None else int(nloc)
        feeds, order = self.prepare_feeds(
            system, pair_i, pair_j, backend=backend, nloc=nloc, pbc=pbc
        )
        out = self.session.run(
            [self._f_energy, self._f_forces, self._f_virial] + list(self._f_e_atoms),
            feeds,
        )
        energy, forces, virial = out[0], out[1], out[2]
        e_atoms_sorted = np.concatenate([np.atleast_1d(e) for e in out[3:]])

        # add per-type bias and map atomic energies back to original order
        local_types = system.types[:nloc]
        atom_e = np.empty(nloc)
        atom_e[order] = e_atoms_sorted
        atom_e += self.e0[local_types]
        total = float(energy + self.e0[local_types].sum())
        return PotentialResult(total, forces, virial, atom_energies=atom_e)
