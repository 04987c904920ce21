"""Generic AST rebuilding utilities.

:func:`transform` applies a bottom-up rewrite function over a tree,
reconstructing the slotted dataclass nodes only along changed paths (nodes
are immutable by convention, so a change always builds a new node).  Both
the skeletonizer (constants → placeholders) and the antipattern rewrites
are expressed with it.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from .ast_nodes import FIELD_NAMES, Node

NodeT = TypeVar("NodeT", bound=Node)

#: A rewrite callback: receives each (already child-rewritten) node and
#: returns a replacement, or None to keep the node unchanged.
Rewriter = Callable[[Node], Optional[Node]]


def transform(node: NodeT, rewrite: Rewriter) -> NodeT:
    """Rebuild ``node`` bottom-up, applying ``rewrite`` at every node.

    Children are transformed first; then ``rewrite`` is offered the node
    (with its new children).  Returning ``None`` keeps the node.  Untouched
    subtrees are shared, not copied.
    """
    names = FIELD_NAMES[type(node)]
    args = None
    for position, name in enumerate(names):
        value = getattr(node, name)
        if isinstance(value, Node):
            new_value = transform(value, rewrite)
        elif isinstance(value, tuple) and any(
            isinstance(item, Node) for item in value
        ):
            new_value = tuple(
                transform(item, rewrite) if isinstance(item, Node) else item
                for item in value
            )
            if all(a is b for a, b in zip(new_value, value)):
                new_value = value
        else:
            continue
        if new_value is not value:
            if args is None:
                args = [getattr(node, n) for n in names]
            args[position] = new_value

    rebuilt = type(node)(*args) if args is not None else node
    replacement = rewrite(rebuilt)
    return rebuilt if replacement is None else replacement  # type: ignore[return-value]
