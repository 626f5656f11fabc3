"""Intraprocedural def-use tracking: the flow half of the flow core.

The REP1xx/REP2xx protocol rules cannot be pattern-matched off single
AST nodes: whether ``path.write_bytes(blob)`` is a violation depends
on where ``blob`` *came from* (a ``seal(...)`` call?) and where
``path`` *goes* (an ``os.replace`` publish?).  :class:`FunctionFlow`
answers both questions for one lexical scope — a function body or a
module top level — by indexing every assignment in the scope and
computing, on demand, the **origin closure** of an expression: the
expression's own subtree plus, transitively, the subtrees of every
value assigned to any name the expression reads.

The analysis is deliberately conservative and lexical:

* all assignments to a name contribute to its origin (no path
  sensitivity) — a value *may* come from any of them;
* nested function/class/lambda bodies are separate scopes and are
  never descended into (a closure is not this scope's dataflow);
* a function scope chains to its module scope for names it never
  binds locally, so module-level constants (``_MANIFEST_NAME = ...``)
  resolve inside methods.

Conservatism errs toward *finding* protocol hazards; the sanctioned
escapes (tmp-suffix + ``os.replace``, seal ``check`` wrappers) are
recognized explicitly by the checkers in
:mod:`repro.analysis.protocol`.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = ["FunctionFlow", "ScopeNode", "scope_nodes", "walk_scope"]

#: Node types that open a new lexical scope (their bodies are never
#: part of the enclosing scope's dataflow).
_SCOPE_BOUNDARIES = (ast.FunctionDef, ast.AsyncFunctionDef,
                     ast.ClassDef, ast.Lambda)

ScopeNode = ast.AST  # Module | FunctionDef | AsyncFunctionDef


def walk_scope(scope: ScopeNode) -> Iterator[ast.AST]:
    """Yield every node lexically inside ``scope``'s own body.

    Unlike :func:`ast.walk`, nested function/class/lambda bodies are
    skipped — only their *headers* (decorators, defaults, bases) are
    yielded, because those evaluate in the enclosing scope.
    """
    body = list(ast.iter_child_nodes(scope))
    stack = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_BOUNDARIES):
            # Headers evaluate here; bodies do not.
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(reversed(node.decorator_list))
                stack.extend(reversed(node.args.defaults))
                stack.extend(reversed(
                    [d for d in node.args.kw_defaults if d is not None]
                ))
            elif isinstance(node, ast.ClassDef):
                stack.extend(reversed(node.decorator_list))
                stack.extend(reversed(node.bases))
                stack.extend(reversed([kw.value for kw in node.keywords]))
            elif isinstance(node, ast.Lambda):
                stack.extend(reversed(node.args.defaults))
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def scope_nodes(tree: ast.AST) -> List[ScopeNode]:
    """Every scope in ``tree``: the module plus all (nested) functions."""
    scopes: List[ScopeNode] = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node)
    return scopes


class FunctionFlow:
    """Def-use index of one lexical scope.

    Parameters
    ----------
    scope:
        An :class:`ast.Module`, :class:`ast.FunctionDef` or
        :class:`ast.AsyncFunctionDef`.
    resolve:
        ``Call -> Optional[str]`` canonical-name resolver (normally
        :meth:`repro.analysis.core.FileContext.resolve_call`); used by
        the call-classifying helpers.
    parent:
        The enclosing scope's flow (a function chains to its module),
        consulted for names the scope never binds.
    """

    def __init__(self, scope: ScopeNode,
                 resolve: Callable[[ast.Call], Optional[str]],
                 parent: Optional["FunctionFlow"] = None):
        self.scope = scope
        self.resolve = resolve
        self.parent = parent
        #: name -> every expression assigned to it, in lexical order.
        self.assignments: Dict[str, List[ast.expr]] = {}
        #: parameter names of a function scope (their origin is the
        #: caller's — see PackageIndex.param_arg_exprs).
        self.params: Set[str] = set()
        #: every Call lexically in the scope, in source order.
        self.calls: List[ast.Call] = []
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            every = list(args.posonlyargs) + list(args.args) \
                + list(args.kwonlyargs)
            if args.vararg:
                every.append(args.vararg)
            if args.kwarg:
                every.append(args.kwarg)
            self.params = {a.arg for a in every}
        self._index()

    # -- construction ----------------------------------------------

    def _bind(self, target: ast.AST, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.assignments.setdefault(target.id, []).append(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, value)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value)
        # Attribute/Subscript targets carry no name to track.

    def _index(self) -> None:
        for node in walk_scope(self.scope):
            if isinstance(node, ast.Call):
                self.calls.append(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._bind(target, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value:
                self._bind(node.target, node.value)
            elif isinstance(node, ast.AugAssign):
                self._bind(node.target, node.value)
            elif isinstance(node, ast.NamedExpr):
                self._bind(node.target, node.value)
            elif isinstance(node, ast.withitem) and node.optional_vars:
                self._bind(node.optional_vars, node.context_expr)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._bind(node.target, node.iter)

    # -- origin closure --------------------------------------------

    def _lookup(self, name: str) -> Sequence[ast.expr]:
        """Assignments binding ``name``, chaining to the parent scope
        for free variables."""
        local = self.assignments.get(name)
        if local:
            return local
        if name in self.params:
            return ()  # caller-owned; see PackageIndex.param_arg_exprs
        if self.parent is not None:
            return self.parent._lookup(name)
        return ()

    def origin_nodes(self, expr: ast.AST,
                     extra: Iterable[ast.AST] = ()) -> List[ast.AST]:
        """The origin closure of ``expr``: its own subtree plus the
        subtrees of everything assigned to names it (transitively)
        reads.  ``extra`` seeds additional roots (e.g. inlined return
        expressions from the call graph)."""
        out: List[ast.AST] = []
        seen_names: Set[str] = set()
        stack: List[ast.AST] = [expr, *extra]
        while stack:
            root = stack.pop()
            for sub in ast.walk(root):
                out.append(sub)
                if isinstance(sub, ast.Name) \
                        and isinstance(sub.ctx, ast.Load) \
                        and sub.id not in seen_names:
                    seen_names.add(sub.id)
                    stack.extend(self._lookup(sub.id))
        return out

    def origin_names(self, expr: ast.AST) -> Set[str]:
        """Every name read anywhere in the origin closure of ``expr``."""
        return {n.id for n in self.origin_nodes(expr)
                if isinstance(n, ast.Name)}

    def origin_calls(self, expr: ast.AST,
                     extra: Iterable[ast.AST] = ()) \
            -> List[Tuple[ast.Call, str]]:
        """``(call, resolved_name)`` for every call in the closure."""
        out = []
        for node in self.origin_nodes(expr, extra):
            if isinstance(node, ast.Call):
                name = self.resolve(node)
                if name is None:
                    name = _attr_chain(node.func)
                if name:
                    out.append((node, name))
        return out

    def origin_params(self, expr: ast.AST) -> Set[str]:
        """Scope parameters the closure of ``expr`` reads — the names
        whose true origin lives at the call sites."""
        if not self.params:
            return set()
        return {n.id for n in self.origin_nodes(expr)
                if isinstance(n, ast.Name) and n.id in self.params}

    # -- classification helpers ------------------------------------

    def origin_strings(self, expr: ast.AST,
                       extra: Iterable[ast.AST] = ()) -> List[str]:
        """String constants in the closure, including f-string literal
        fragments (``f"{key}.task"`` contributes ``".task"``)."""
        out = []
        for node in self.origin_nodes(expr, extra):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                out.append(node.value)
        return out

    def mentions_identifier(self, expr: ast.AST,
                            patterns: Sequence[str],
                            extra: Iterable[ast.AST] = ()) -> bool:
        """True when any identifier in the closure — a name, or the
        final attribute of a chain — fnmatches one of ``patterns``."""
        for node in self.origin_nodes(expr, extra):
            ident = None
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            if ident and any(fnmatch(ident, p) for p in patterns):
                return True
        return False


def _attr_chain(node: ast.AST) -> Optional[str]:
    """A dotted rendering of an attribute chain that tolerates any
    base expression: ``self.spool.heartbeat`` but also
    ``<call>.result`` (rendered from its final attributes only)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    if not parts:
        return None
    return ".".join(reversed(parts))
