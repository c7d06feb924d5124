"""Reverse-mode automatic differentiation for tfmini graphs.

:func:`grad` builds *new graph nodes* for every vector-Jacobian product, so
the result can itself be differentiated.  That second differentiation is what
force-matching training needs: the force is already a gradient
(F = -dE/dR via ProdForce), and the training loss needs d(loss(F))/dθ.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.tfmini.graph import Node, topo_sort
from repro.tfmini.ops import add, get_op


def grad(
    output: Node,
    wrt: Sequence[Node],
    grad_output: Optional[Node] = None,
) -> list[Optional[Node]]:
    """Build gradient nodes of ``output`` w.r.t. each node in ``wrt``.

    Parameters
    ----------
    output:
        Scalar (or any-shaped, if ``grad_output`` is given) node to
        differentiate.
    wrt:
        Nodes to differentiate with respect to (variables, placeholders, or
        intermediate nodes).
    grad_output:
        Upstream cotangent; defaults to ones-like ``output`` (created lazily
        at run time so no shape knowledge is needed here).

    Returns
    -------
    list of Node or None — ``None`` where ``output`` does not depend on the
    requested node.
    """
    if grad_output is None:
        grad_output = Node("ones_like", (output,))

    order = topo_sort([output])
    # Restrict work to the sub-DAG that actually connects wrt -> output.
    wrt_ids = {id(w) for w in wrt}
    relevant: set[int] = set(wrt_ids)
    for node in order:  # topological order: inputs come before consumers
        if any(id(i) in relevant for i in node.inputs):
            relevant.add(id(node))

    grads: dict[int, Node] = {id(output): grad_output}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or id(node) not in relevant and id(node) != id(output):
            continue
        if not node.inputs:
            continue
        vjp = get_op(node.op).vjp
        if vjp is None:
            if any(id(i) in relevant for i in node.inputs):
                raise NotImplementedError(
                    f"op '{node.op}' has no registered gradient but lies on a "
                    f"differentiation path"
                )
            continue
        input_grads = vjp(node, g)
        if len(input_grads) != len(node.inputs):
            raise RuntimeError(
                f"vjp for '{node.op}' returned {len(input_grads)} grads for "
                f"{len(node.inputs)} inputs"
            )
        for inp, ig in zip(node.inputs, input_grads):
            if ig is None or id(inp) not in relevant:
                continue
            prev = grads.get(id(inp))
            grads[id(inp)] = ig if prev is None else add(prev, ig)

    return [grads.get(id(w)) for w in wrt]


def _fwd_ones_like(inputs, attrs):
    import numpy as np

    return np.ones_like(inputs[0])


# Register the lazy ones-like leaf used as the default cotangent.
from repro.tfmini.ops import register_op  # noqa: E402

register_op(
    "ones_like",
    _fwd_ones_like,
    vjp=lambda node, g: [None],
    flops=lambda node, ins, out: 0,
    forward_out=lambda inputs, attrs, out: out.fill(1),
    infer=lambda shapes, dtypes, attrs, ctx: (shapes[0], dtypes[0]),
    shape_only=(0,),
)
