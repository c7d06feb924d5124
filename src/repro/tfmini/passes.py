"""Graph rewrite passes implementing the paper's Sec 5.3 fusions.

Three rewrites, mirroring the optimized DeePMD-kit execution graph:

1. ``fuse_matmul_sum``  — MATMUL followed by broadcast SUM of a rank-1 bias
   becomes a single GEMM call (Sec 5.3.1, Fig 2 (g1)).
2. ``fuse_concat_sum``  — CONCAT of a tensor with itself followed by SUM
   becomes one record (Sec 5.3.2, Fig 2 (g2)): the paper's ``x @ (I, I) +
   y`` GEMM, computed here as the broadcast add it equals.
3. ``fuse_tanh``        — forward TANH and backward TANHGrad collapse into a
   single kernel that emits both ``tanh(x)`` and ``1 - tanh(x)^2``
   (Sec 5.3.3, Fig 2 (g3)); trades memory for a second elementwise pass.

Passes rebuild the DAG bottom-up; leaves (placeholders/variables/constants)
keep identity so existing feed dictionaries remain valid.  Passes are applied
*after* gradient construction — they rewrite the complete forward+backward
graph just as the paper rewrites the frozen TF execution graph.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.tfmini.graph import Node, topo_sort
from repro.tfmini.ops import gemm, mul, register_op


def _rebuild(fetches: Sequence[Node], transform: Callable[[Node], Optional[Node]]):
    """Rebuild the DAG, applying ``transform`` to every non-leaf node."""
    memo: dict[int, Node] = {}
    for node in topo_sort(fetches):
        if not node.inputs:
            memo[id(node)] = node
            continue
        new_inputs = tuple(memo[id(i)] for i in node.inputs)
        if new_inputs == node.inputs:
            cand = node
        else:
            cand = Node(
                node.op, new_inputs, dict(node.attrs), shape=node.shape, dtype=node.dtype
            )
        replaced = transform(cand)
        memo[id(node)] = replaced if replaced is not None else cand
    return [memo[id(f)] for f in fetches]


def _static_ndim(node: Node) -> Optional[int]:
    return None if node.shape is None else len(node.shape)


def fuse_matmul_sum(fetches: Sequence[Node]) -> list[Node]:
    """Rewrite ``add(matmul(x, W), b)`` (b rank-1) into ``gemm(x, W, b)``."""

    def transform(node: Node) -> Optional[Node]:
        if node.op != "add":
            return None
        a, b = node.inputs
        if a.op == "matmul" and _static_ndim(b) == 1:
            return gemm(a.inputs[0], a.inputs[1], b)
        if b.op == "matmul" and _static_ndim(a) == 1:
            return gemm(b.inputs[0], b.inputs[1], a)
        return None

    return _rebuild(fetches, transform)


def concat_sum(x: Node, y: Node) -> Node:
    """Fused ``concat(x, x, axis=1) + y`` for 2-D ``x``: one broadcast add."""
    return Node("concat_sum", (x, y))


def _halves(x, y):
    """``y`` (broadcast to ``(n, 2k)``) seen as ``(n, 2, k)``, next to the
    ``(n, 1, k)`` view of ``x`` both halves add."""
    n, k = x.shape
    return np.broadcast_to(y, (n, 2 * k)).reshape(n, 2, k), x[:, None, :]


def _fwd_concat_sum(inputs, attrs):
    y3, x3 = _halves(*inputs)
    return (y3 + x3).reshape(x3.shape[0], 2 * x3.shape[2])


def _out_concat_sum(inputs, attrs, out):
    y3, x3 = _halves(*inputs)
    np.add(y3, x3, out=out.reshape(y3.shape))


def _inf_concat_sum(shapes, dtypes, attrs, ctx):
    x, y = shapes
    if len(x) != 2:
        ctx.fail(f"concat_sum expects a 2-D x, got rank {len(x)}")
    out = (x[0], x[1] + x[1])
    # ``y`` broadcasts into the doubled shape, it does not widen it.
    ctx.unify_shapes(ctx.broadcast(out, y), out, "concat_sum addend")
    return out, np.promote_types(dtypes[0], dtypes[1])


register_op(
    "concat_sum",
    _fwd_concat_sum,
    flops=lambda node, ins, out: out.size,
    forward_out=_out_concat_sum,
    infer=_inf_concat_sum,
)


def fuse_concat_sum(fetches: Sequence[Node]) -> list[Node]:
    """Rewrite ``add(concat(x, x), y)`` into ``concat_sum(x, y)``.

    Only fires on self-concatenation of a matrix along its last axis —
    exactly the skip-connection shape in the embedding net (output dim =
    2 x input dim).  The paper's form of this fusion is ``x @ (I, I) + y``
    as one GEMM (Sec 5.3.2); every element of it is ``x * 1 + 0 + ... + y``,
    which rounds once, so the broadcast add has the same bits for finite
    inputs at 0.4 x the time on tall-skinny activations (56320 x 50:
    27.9 -> 11.0 ms).  ``benchmarks/test_sec53_graph_fusion.py`` keeps the
    GEMM form as a hand-built contrast.
    """

    def transform(node: Node) -> Optional[Node]:
        if node.op != "add":
            return None

        def match(cc: Node, other: Node) -> Optional[Node]:
            if cc.op != "concat":
                return None
            x1, x2 = cc.inputs
            if x1 is not x2:
                return None
            axis = cc.attrs["axis"]
            nd = _static_ndim(x1)
            if axis not in (-1, 1) or (axis == 1 and nd not in (None, 2)):
                return None
            return concat_sum(x1, other)

        a, b = node.inputs
        return match(a, b) or match(b, a)

    return _rebuild(fetches, transform)


def fuse_tanh(fetches: Sequence[Node]) -> list[Node]:
    """Fuse TANH/TANHGrad pairs into a dual-output kernel.

    Every ``tanh`` whose output feeds a ``tanh_grad`` is replaced by
    ``tanh_fused`` producing ``(y, 1 - y^2)``; the ``tanh_grad`` collapses to
    an elementwise multiply with the cached second output.
    """
    # Identify tanh nodes that are consumed by a tanh_grad in this graph.
    wanted: set[int] = set()
    for node in topo_sort(fetches):
        if node.op == "tanh_grad" and node.inputs[0].op == "tanh":
            wanted.add(id(node.inputs[0]))

    fused_pairs: dict[int, tuple[Node, Node]] = {}

    # The rebuild walks bottom-up, so each tanh node is rebuilt before its
    # tanh_grad consumers; fused pairs are recorded under the original id.
    memo: dict[int, Node] = {}
    for node in topo_sort(fetches):
        if not node.inputs:
            memo[id(node)] = node
            continue
        new_inputs = tuple(memo[id(i)] for i in node.inputs)
        if node.op == "tanh" and id(node) in wanted:
            # Build the fused pair on the (rebuilt) input.
            both = Node("tanh_fused", new_inputs)
            y = Node("item", (both,), {"index": 0})
            g = Node("item", (both,), {"index": 1})
            fused_pairs[id(node)] = (y, g)
            memo[id(node)] = y
            continue
        if node.op == "tanh_grad" and id(node.inputs[0]) in fused_pairs:
            _, g_node = fused_pairs[id(node.inputs[0])]
            dy = new_inputs[1]
            memo[id(node)] = mul(dy, g_node)
            continue
        if new_inputs == node.inputs:
            memo[id(node)] = node
        else:
            memo[id(node)] = Node(
                node.op, new_inputs, dict(node.attrs), shape=node.shape, dtype=node.dtype
            )
    return [memo[id(f)] for f in fetches]


PASSES = {
    "matmul_sum": fuse_matmul_sum,
    "concat_sum": fuse_concat_sum,
    "tanh": fuse_tanh,
}


def optimize_graph(
    fetches: Sequence[Node] | Node,
    passes: Iterable[str] = ("matmul_sum", "concat_sum", "tanh"),
) -> list[Node] | Node:
    """Apply the named rewrite passes in order; returns rewritten fetches."""
    single = isinstance(fetches, Node)
    fs = [fetches] if single else list(fetches)
    for name in passes:
        try:
            fn = PASSES[name]
        except KeyError:
            raise KeyError(f"unknown pass '{name}'; available: {sorted(PASSES)}") from None
        fs = fn(fs)
    return fs[0] if single else fs
