"""Structural keys, equality and the canonical text of Lift IR graphs.

The rewrite-space explorer derives thousands of programs that share
almost all of their nodes; telling two of them apart must depend
neither on the *names* of lambda parameters (every clone invents fresh
``Param`` objects) nor on Python object identity — and must not cost a
walk of the whole program each time.  Every expression therefore has
one **structural key**, computed once, bottom-up from the keys below it,
and cached on the node (``FunCall._key``, ``Literal._key``; a
parameter's is made on the spot):

``key = (shape, free)``

* ``free`` — the ``Param`` objects the subtree reads but does not bind,
  in first-occurrence order (a call's arguments before its function),
  *by identity*: ``zip(x, y)`` and ``zip(y, x)`` are different programs.
* ``shape`` — a :class:`Shape`: everything else.  A call's shape says
  what is applied — every pattern from the outermost wrapper inwards by
  class name and static ``payload`` (split factor, dimension, vector
  width, ...; an index function by its name, the address-space wrappers
  as ``to:<space>``), a user function by name, parameter names, C body
  and types — and holds the shapes of the arguments and, where the
  applied chain ends in a ``Lambda``, of its body.  A parameter
  occurrence is an index into ``free``; a parent records, per child, how
  the child's indices map into its own; a lambda closes over its
  parameters *by position* (locally nameless), so alpha-equivalent
  functions have equal shapes.  A declaration is keyed on its own only
  when it is asked (a root program: ``Lambda._key``).

The key is **context-free**: it mentions nothing above the node — no
binder depth, no traversal counter — so a subtree shared by a hundred
derivations has one key under any number of binders, and the key of a
rewritten program costs the calls the rewrite allocated.  A ``Shape``
hashes in O(1) (the hash is stored) and compares by identity first, so
telling equal keys equal costs the nodes two programs do *not* share.
Keys read structure only (``f`` / ``args`` / ``params`` / ``body`` /
payload — write-once, see :mod:`repro.ir.visit`), never an annotation:
typing a program does not move its key.  Computing one is a pure
function ending in a single attribute store, so racing threads write
equal values.

A ``Lambda`` asked for its key is a *program*: its parameters are the
declared inputs, and their types are part of what it is (nested
lambdas' parameter types are inferred annotations and are not).
:func:`key` appends them; that triple is the one notion of program
equality — :func:`structural_eq` and the explorer's dedup sets compare
it, and every per-subtree memo of a search is indexed by it.

The **canonical text** is the key's serialisation, for what is stored,
logged or shown: bound parameters print as ``(b<n>)``, numbered in
binding order along one traversal of the whole graph (which is why the
text, unlike the key, cannot be assembled from subtrees), free ones as
``(free<i>)`` — numbered, so on an *open* graph the text is coarser
than the key — and only the root lambda prints parameter types.  It is
produced once per root, cached on the root's shape, and
:func:`structural_hash` is its SHA-256: a process-independent content
address (Python's ``hash`` is salted per process) that
:mod:`repro.cache` files entries under and the ``compile_kernel`` memo
keeps (a string, where a key would pin a graph of shapes).  Arithmetic
expressions use their structural ``str`` form (``Var`` equality is by
name, matching :mod:`repro.arith`).
"""

from __future__ import annotations

import hashlib
from typing import Union

from repro.ir.nodes import Expr, FunCall, FunDecl, Lambda, Literal, Param, UserFun
from repro.ir import patterns as pat

Node = Union[Expr, FunDecl]

_keys_computed = 0


def keys_computed() -> int:
    """Calls (and root declarations) keyed so far in this process — how
    a search shows that it paid for what its rewrites allocated, not for
    whole programs."""
    return _keys_computed


class Shape:
    """The alpha-invariant, identity-free part of a structural key.

    ``head`` says what the node is: the text of a literal, or — for a
    call — the function applied, as a tuple: the text of every pattern
    from the outermost wrapper inwards, ending in the text of a user
    function or leaf pattern, or in the parameter count of the lambda
    the chain ends in (a declaration keyed on its own is that tuple
    behind a ``"fun"``).  ``kids`` holds a ``shape, remap`` pair per
    child, flat — the arguments, then the lambda's body — where
    ``remap[i]`` is where the child's ``i``-th free parameter sits among
    the parent's (``-1 - j``: the lambda's own ``j``-th parameter;
    ``None``: the same indices).
    """

    __slots__ = ("head", "kids", "hash", "text")

    def __init__(self, head, kids: tuple = ()):
        self.head = head
        self.kids = kids
        self.hash = hash((head, kids))

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is Shape
            and self.hash == other.hash
            and self.head == other.head
            and self.kids == other.kids
        )

    def __repr__(self) -> str:
        return f"Shape({self.head!r}, {len(self.kids) // 2} kids)"


#: An occurrence of a parameter: index 0 of a one-parameter ``free``.
_PARAM = Shape("param")


def _node_key(node: Node) -> tuple:
    """The ``(shape, free)`` of ``node``, cached on calls, literals and
    lambdas."""
    cls = type(node)
    if cls is Param:
        return _PARAM, (node,)  # not cached: the pair would hold its owner
    if cls is FunCall:
        return node._key or _call_key(node)
    if cls is Literal:
        found = node._key
        if found is None:
            found = node._key = Shape(f"(lit {node.value!r}:{node.type})"), ()
        return found
    if cls is Lambda:
        found = node._key
        if found is None:
            found = node._key = _applied(node, ("fun",), [], ())
        return found
    if isinstance(node, FunDecl):
        return _applied(node, ("fun",), [], ())
    raise TypeError(f"cannot canonicalize {node!r}")


def _call_key(call: FunCall) -> tuple:
    free: tuple = ()
    kids = []
    for arg in call.args:
        shape, arg_free = _node_key(arg)
        remap = None
        if arg_free and arg_free != free:
            if free:
                free, remap = _merged(free, arg_free)
            else:
                free = arg_free
        kids += (shape, remap)
    found = call._key = _applied(call.f, (), kids, free)
    return found


def _merged(free: tuple, more: tuple) -> tuple:
    """``free`` extended by what ``more`` adds, and where each of
    ``more`` then sits (``None``: where it sat)."""
    merged = list(free)
    remap = []
    for p in more:
        if p not in merged:
            merged.append(p)
        remap.append(merged.index(p))
    if remap == list(range(len(remap))):
        remap = None
    return tuple(merged), remap and tuple(remap)


def _applied(f: FunDecl, head: tuple, kids: list, free: tuple) -> tuple:
    """The key of a node that is ``head`` and ``kids`` (over ``free``)
    so far and applies — or is — the declaration ``f``."""
    while type(f) is not Lambda:
        inner = getattr(f, "f", None)
        head += (_own_text(f, inner is not None),)
        if inner is None:
            break
        f = inner
    else:
        shape, body_free = _node_key(f.body)
        params = f.params
        remap = []
        for p in body_free:
            if p in params:
                remap.append(-1 - params.index(p))
            else:
                if p not in free:
                    free += (p,)
                remap.append(free.index(p))
        head += (len(params),)
        kids += (shape, tuple(remap))
    global _keys_computed
    _keys_computed += 1
    return Shape(head, tuple(kids)), free


def _own_text(f: FunDecl, nests: bool) -> str:
    """What a user function or pattern contributes to a shape: all of
    its text, or — ``nests`` — up to where its function goes."""
    if type(f) is UserFun:
        if f._text is None:
            sig = ",".join(str(t) for t in f.in_types)
            f._text = (
                f"(uf {f.name} [{','.join(f.param_names)}] "
                f"{f.body!r} [{sig}]->{f.out_type})"
            )
        return f._text
    if isinstance(f, pat.AddressSpaceWrapper):
        return f"(to:{f.space}"
    if not isinstance(f, pat.Pattern):
        raise TypeError(f"cannot canonicalize {f!r}")
    text = "(" + type(f).__name__
    for name in f.payload:
        value = getattr(f, name)
        # An index function is a Python closure; its name is its identity.
        text += ":" + (value.name if isinstance(value, pat.IndexFun) else str(value))
    return text if nests else text + ")"


def key(node: Node) -> tuple:
    """The structural key of a graph: hashable, equal exactly for
    alpha-equivalent graphs over the same free parameters, and — but for
    a root lambda's declared parameter types — a read of the node's
    cached ``(shape, free)``."""
    found = getattr(node, "_key", None) or _node_key(node)
    if type(node) is Lambda:
        return found + (tuple(str(p.type) for p in node.params),)
    return found


def _root_text(shape: Shape, n_free: int) -> str:
    """``shape`` printed as the root of a traversal; for a lambda, its
    body under its own binders (the caller prints the declared types)."""
    try:
        return shape.text
    except AttributeError:
        pass
    bound = 0

    def go(s: Shape, env: list, root: bool = False) -> str:
        """The text of a call or literal — a parameter is printed by
        its parent — or of the declaration a ``root`` shape stands for."""
        nonlocal bound
        head = s.head
        if head.__class__ is str:
            return head
        kids = s.kids
        last = head[-1]
        nested = last.__class__ is int
        # The binders of the arguments are numbered before the
        # function's, which prints first.
        args = ""
        for k in range(0, len(kids) - 2 if nested else len(kids), 2):
            kid, remap = kids[k], kids[k + 1]
            if kid is _PARAM:
                args += " " + env[0 if remap is None else remap[0]]
            else:
                args += " " + go(
                    kid, env if remap is None else [env[i] for i in remap]
                )
        if nested:
            first = bound
            bound += last
            inner = [
                env[i] if i >= 0 else f"(b{first - 1 - i})" for i in kids[-1]
            ]
            body = inner[0] if kids[-2] is _PARAM else go(kids[-2], inner)
            if root and len(head) == 2:
                return body  # the root lambda: the caller has its types
            last = f"(lam [{','.join(['None'] * last)}] {body})"
        for opener in reversed(head[1 if root else 0:-1]):
            last = f"{opener} {last})"
        return last if root else f"(call {last}{args or ' '})"

    env = [f"(free{i})" for i in range(n_free)]
    if shape is _PARAM:
        text = env[0]
    else:
        text = go(shape, env, shape.head[0] == "fun")
    shape.text = text
    return text


def canonical(node: Node) -> str:
    """The canonical (alpha-equivalence-respecting) text of a graph:
    the serialisation of its :func:`key`."""
    shape, free = _node_key(node)
    text = _root_text(shape, len(free))
    if type(node) is Lambda:
        # Only the root lambda *declares* its parameter types (the
        # program's inputs); see the module docstring.
        types = ",".join(str(p.type) for p in node.params)
        return f"(lam [{types}] {text})"
    return text


def structural_eq(a: Node, b: Node) -> bool:
    """Alpha-equivalence: equal up to parameter naming and cloning."""
    return key(a) == key(b)


def structural_hash(node: Node) -> str:
    """A process-independent SHA-256 digest of the canonical form.

    Suitable as an on-disk content address; equal for alpha-equivalent
    programs, different (modulo hash collisions) otherwise.
    """
    return hashlib.sha256(canonical(node).encode("utf-8")).hexdigest()
