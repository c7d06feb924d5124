"""repro.dp — the Deep Potential model, the paper's core contribution.

Submodules mirror the structure of the optimized DeePMD-kit:

* :mod:`repro.dp.nlist_fmt` — the Sec 5.2.1 neighbor-list layout (type-sorted,
  distance-sorted, padded) and the Sec 5.2.2 64-bit compression codec;
* :mod:`repro.dp.env_mat` — the smoothed environment matrix R~ and its
  position derivative;
* :mod:`repro.dp.ops_baseline` / :mod:`repro.dp.ops_optimized` — the three
  customized operators (Environment, ProdForce, ProdVirial) in the original
  AoS/looped form and in the optimized vectorized form (Table 3);
* :mod:`repro.dp.network` — embedding and fitting nets with the paper's skip
  connections, built on tfmini;
* :mod:`repro.dp.model` — :class:`DeepPot`: energies, forces, virial, with
  double or mixed precision (Sec 5.2.3);
* :mod:`repro.dp.batch` — :class:`BatchedEvaluator`: R replica frames stacked
  through one set of batched GEMMs with persistent scratch buffers;
* :mod:`repro.dp.backend` — the force seam, ``evaluate(frames)``: all MD
  drivers (serial, ensemble, distributed, distributed-ensemble) feed
  :class:`ForceFrame` s into a :class:`ForceBackend` (validated, then
  shape-bucketed batched evaluation);
* :mod:`repro.dp.pair` — the ``pair_style deepmd`` adapter into repro.md;
* :mod:`repro.dp.train` — energy+force loss with double backprop, Adam;
* :mod:`repro.dp.data` — labeled datasets generated from the oracles;
* :mod:`repro.dp.active` — DP-GEN-style concurrent learning (ref [68]);
* :mod:`repro.dp.serialize` — model save/load.
"""

from repro.dp.model import DeepPot, DPConfig
from repro.dp.batch import (
    BatchedEvaluator,
    ScratchPool,
    frame_bucket_key,
    plan_frame_buckets,
)
from repro.dp.backend import ForceBackend, ForceFrame
from repro.dp.pair import DeepPotPair
from repro.dp.nlist_fmt import (
    FormattedNeighbors,
    compress_entries,
    decompress_entries,
    format_neighbors,
)
from repro.dp.data import LabeledFrame, Dataset, label_frames, sample_md_frames
from repro.dp.train import Trainer, TrainConfig
from repro.dp.serialize import save_model, load_model
from repro.dp.active import ModelEnsemble, ActiveLearner

__all__ = [
    "DeepPot",
    "DPConfig",
    "BatchedEvaluator",
    "ScratchPool",
    "frame_bucket_key",
    "plan_frame_buckets",
    "ForceBackend",
    "ForceFrame",
    "DeepPotPair",
    "FormattedNeighbors",
    "compress_entries",
    "decompress_entries",
    "format_neighbors",
    "LabeledFrame",
    "Dataset",
    "label_frames",
    "sample_md_frames",
    "Trainer",
    "TrainConfig",
    "save_model",
    "load_model",
    "ModelEnsemble",
    "ActiveLearner",
]
