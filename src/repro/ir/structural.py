"""Structural hashing and equality for Lift IR graphs.

The rewrite-space explorer enumerates thousands of candidate programs;
telling two of them apart must not depend on the *names* of lambda
parameters (every ``clone_expr``/``clone_decl`` invents fresh ``Param``
objects) nor on Python object identity.  This module gives every IR
graph a canonical textual form:

* bound parameters are numbered de-Bruijn-style in binding order, so
  alpha-equivalent programs canonicalize identically;
* free parameters (program inputs) are numbered by first occurrence,
  which is stable under cloning (clones share free ``Param`` objects);
* patterns serialize their class name and static ``payload`` (split
  factor, dimension, vector width, ...; an index function by its name)
  around their nested function; the address-space wrappers are spelled
  ``to:<space>``;
* only the root lambda prints parameter types (the declared program
  inputs) — the types of bound parameters are inferred annotations, and
  a key that read them would change when a program is type-checked;
* arithmetic expressions use their structural ``str`` form (``Var``
  equality is by name, matching :mod:`repro.arith`);
* user functions serialize name, parameter names, C body and types —
  two independently constructed ``id`` functions are equal.

``structural_hash`` digests the canonical form with SHA-256, giving a
process-independent key (Python's built-in ``hash`` is salted per
process) that the persistent :mod:`repro.cache` store can use on disk.
Canonical strings are interned, so repeated hashing of equal programs
(the explorer's dedup loop) reuses one string object per class.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Union

from repro.ir.nodes import Expr, FunCall, FunDecl, Lambda, Literal, Param, UserFun
from repro.ir import patterns as pat
from repro.ir.visit import nested_fun

Node = Union[Expr, FunDecl]


class _Canonicalizer:
    def __init__(self) -> None:
        self.bound: dict[int, int] = {}  # id(Param) -> de Bruijn number
        self.free: dict[int, tuple] = {}  # id(Param) -> (number, param)
        self.next_bound = 0

    # -- expressions -----------------------------------------------------
    def expr(self, e: Expr) -> str:
        if isinstance(e, Literal):
            return f"(lit {e.value!r}:{e.type})"
        if isinstance(e, Param):
            number = self.bound.get(id(e))
            if number is not None:
                return f"(b{number})"
            entry = self.free.get(id(e))
            if entry is None:
                entry = (len(self.free), e)
                self.free[id(e)] = entry
            return f"(free{entry[0]})"
        if isinstance(e, FunCall):
            args = " ".join(self.expr(a) for a in e.args)
            return f"(call {self.decl(e.f)} {args})"
        raise TypeError(f"cannot canonicalize {e!r}")

    # -- declarations ----------------------------------------------------
    def decl(self, f: FunDecl, root: bool = False) -> str:
        if isinstance(f, Lambda):
            for p in f.params:
                self.bound[id(p)] = self.next_bound
                self.next_bound += 1
            body = self.expr(f.body)
            # Only the root lambda *declares* its parameter types (the
            # program's inputs).  A bound parameter's ``type`` is whatever
            # ``infer_types`` last wrote, and the key must not move when a
            # program gets typed: it prints the ``None`` an untyped
            # (freshly built or rewritten) program always had.
            types = ",".join(str(p.type if root else None) for p in f.params)
            for p in f.params:
                del self.bound[id(p)]
            return f"(lam [{types}] {body})"
        if isinstance(f, UserFun):
            sig = ",".join(str(t) for t in f.in_types)
            return (
                f"(uf {f.name} [{','.join(f.param_names)}] "
                f"{f.body!r} [{sig}]->{f.out_type})"
            )
        if isinstance(f, pat.AddressSpaceWrapper):
            head = f"to:{f.space}"
        else:
            head = ":".join(
                [type(f).__name__]
                + [_payload_text(getattr(f, name)) for name in f.payload]
            )
        inner = nested_fun(f)
        return f"({head})" if inner is None else f"({head} {self.decl(inner)})"


def _payload_text(value) -> str:
    # An index function is a Python closure; its name is its identity.
    return value.name if isinstance(value, pat.IndexFun) else str(value)


def canonical(node: Node) -> str:
    """The canonical (alpha-equivalence-respecting) form of a graph."""
    c = _Canonicalizer()
    if isinstance(node, Expr):
        text = c.expr(node)
    elif isinstance(node, FunDecl):
        text = c.decl(node, root=True)
    else:
        raise TypeError(f"cannot canonicalize {node!r}")
    return sys.intern(text)


def structural_eq(a: Node, b: Node) -> bool:
    """Alpha-equivalence: equal up to parameter naming and cloning."""
    return canonical(a) == canonical(b)


def structural_hash(node: Node) -> str:
    """A process-independent SHA-256 digest of the canonical form.

    Suitable as an on-disk content address; equal for alpha-equivalent
    programs, different (modulo hash collisions) otherwise.
    """
    return hashlib.sha256(canonical(node).encode("utf-8")).hexdigest()
