"""REP1xx/REP2xx: the protocol rules of the guard and dist layers.

Where REP001–REP007 police *determinism* (hidden per-process state),
these rules police the *runtime protocols* PRs 5–7 introduced — the
disciplines that make artifacts trustworthy and the distributed grid
crash-safe.  Each rule is flow-aware: it asks where a value came from
(:class:`~repro.analysis.dataflow.FunctionFlow` origin closures) and
what the surrounding scope does with it (publish, lock, fork), with
the package call-graph index resolving helpers like ``seal`` wrappers
and path factories across modules.

Artifact integrity (REP1xx)
    * **REP102** — bytes read from a sealed artifact must pass
      through ``repro.guard.seal.check`` (or a wrapper that calls
      it) before being parsed or unpickled.
    * **REP103** — cache-key-style hashes must be built from
      ``canonicalize``/``canonical_blob``, never from unsorted
      ``json.dumps``, ``repr``, or ``str`` of unordered containers.
    * **REP105** — artifact-root / sealed-payload writes must route
      through the sanctioned write seam (:mod:`repro.guard.faults`),
      which publishes atomically; even a correct open-coded
      temp+replace dance is invisible to fault injection and the
      degradation contracts.

Concurrency / distribution (REP2xx)
    * **REP201** — lease/heartbeat/deadline arithmetic must use the
      monotonic clock; wall-clock instants jump under NTP.
    * **REP202** — no blocking calls while holding an exclusive
      ``flock``.
    * **REP203** — no thread running before the engine forks.
    * **REP204** — ``os._exit`` / signal manipulation only at the
      sanctioned chaos hooks (suppressed there with reasons).

Every sanction test errs toward *reporting*: an unresolvable call is
never assumed to seal, check, or canonicalize anything.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Dict, Iterable, List, Optional, Tuple

from .core import Checker, FileContext
from .dataflow import FunctionFlow, _attr_chain, walk_scope
from .findings import Severity

# -- shared vocabulary ----------------------------------------------

#: Identifier patterns naming artifact-root directories (extendable
#: via the ``artifact_roots`` config key).
_ARTIFACT_ROOTS = ("pending_dir", "leased_dir", "results_dir",
                   "hb_dir", "quarantine_dir", "spool_dir",
                   "journal_dir", "trace_dir")

#: Filename fragments of seal-wrapped artifacts (extendable via the
#: ``sealed_names`` config key).  Heartbeats (``.hb``) are the one
#: deliberately unsealed record and journal lines carry their own
#: per-line sha — neither appears here.
_SEALED_NAMES = (".task", ".result", ".lease", ".pkl",
                 "results.json", "spool.json")

_LOADERS = {"pickle.loads", "pickle.load", "json.loads", "json.load",
            "marshal.loads", "marshal.load"}

_HASH_CTORS = {"hashlib.sha256", "hashlib.sha384", "hashlib.sha512",
               "hashlib.sha1", "hashlib.md5", "hashlib.blake2b",
               "hashlib.blake2s", "hashlib.sha3_256", "hashlib.new"}

_WALL_CLOCK = {"time.time", "time.time_ns",
               "datetime.datetime.now", "datetime.datetime.utcnow",
               "repro.obs.clock.wall_time"}
_MONO_CLOCK = {"time.monotonic", "time.monotonic_ns",
               "time.perf_counter", "time.perf_counter_ns"}

#: Identifier patterns that mark a value as protocol-deadline math.
_LEASE_IDENTS = ("*deadline*", "*lease*", "*expire*", "*expiry*",
                 "*ttl*", "*heartbeat*", "*hb*")

_BLOCKING_CALLS = {
    "time.sleep", "subprocess.run", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "subprocess.Popen", "os.system", "os.wait", "os.waitpid",
    "select.select", "input", "socket.create_connection",
    "urllib.request.urlopen",
}

#: Last-segment names of primitives that start a child process.
_FORK_LAST = {"fork", "Process", "Pool", "ProcessPoolExecutor",
              "run_grid"}

_PROCESS_CONTROL = {
    "os._exit", "os.abort", "os.kill", "os.killpg",
    "signal.signal", "signal.raise_signal", "signal.setitimer",
    "signal.alarm", "signal.pthread_kill",
}


def _last(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _pred_seal(resolved: str) -> bool:
    return _last(resolved) in ("seal", "make_seal")


def _pred_check(resolved: str) -> bool:
    return _last(resolved) in ("check", "check_seal")


def _pred_canonical(resolved: str) -> bool:
    return _last(resolved) in ("canonicalize", "canonical_blob",
                               "task_key")


#: The sanctioned write-seam helpers of :mod:`repro.guard.faults`.
_SEAM_CALLS = ("publish_bytes", "publish_text", "vfs_write",
               "vfs_fsync", "vfs_replace")


def _pred_seam(resolved: str) -> bool:
    return _last(resolved) in _SEAM_CALLS


def _pred_wall(resolved: str) -> bool:
    return resolved in _WALL_CLOCK


def _pred_mono(resolved: str) -> bool:
    return resolved in _MONO_CLOCK


def _pred_fork(resolved: str) -> bool:
    return _last(resolved) in _FORK_LAST


def _pred_blocking(resolved: str) -> bool:
    return resolved in _BLOCKING_CALLS


class ProtocolChecker(Checker):
    """Shared flow/call-graph plumbing for the REP1xx/REP2xx rules."""

    #: Per-index memo tables for call-graph reachability, keyed by
    #: (index identity, predicate name) — valid as long as the index
    #: object lives, shared across every file of one run.
    def __init__(self) -> None:
        self._reach_caches: Dict[Tuple[int, str],
                                 Dict[str, bool]] = {}

    def _reaches(self, ctx: FileContext, resolved: str,
                 pred, pred_name: str) -> bool:
        """True when ``resolved`` names an indexed function that
        transitively makes a call satisfying ``pred``."""
        if ctx.index is None:
            return False
        info = ctx.index.lookup(resolved)
        if info is None:
            return False
        cache = self._reach_caches.setdefault(
            (id(ctx.index), pred_name), {}
        )
        return ctx.index.reaches(info, pred, cache)

    def _satisfies(self, ctx: FileContext, resolved: str,
                   pred, pred_name: str) -> bool:
        return pred(resolved) or self._reaches(ctx, resolved, pred,
                                               pred_name)

    def _extended_nodes(self, ctx: FileContext, flow: FunctionFlow,
                        expr: ast.AST) -> List[ast.AST]:
        """Origin closure of ``expr`` widened by return-inlining: the
        bodies path factories evaluate to become visible here."""
        nodes = flow.origin_nodes(expr)
        if ctx.index is not None:
            for node in list(nodes):
                if isinstance(node, ast.Call):
                    resolved = flow.resolve(node)
                    if resolved and ctx.index.lookup(resolved):
                        nodes.extend(
                            ctx.index.inlined_returns(resolved)
                        )
        return nodes

    def _origin_calls(self, flow: FunctionFlow,
                      nodes: Iterable[ast.AST]) \
            -> List[Tuple[ast.Call, str]]:
        out = []
        for node in nodes:
            if isinstance(node, ast.Call):
                resolved = flow.resolve(node) \
                    or _attr_chain(node.func)
                if resolved:
                    out.append((node, resolved))
        return out

    def _scope_info(self, ctx: FileContext, scope: ast.AST):
        """The index entry of the function scope being analyzed (for
        caller-argument propagation), or ``None``."""
        mod = ctx.module_info
        if mod is None or not isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        cls = ctx.enclosing_class(scope)
        local = f"{cls}.{scope.name}" if cls else scope.name
        return mod.functions.get(local)


# -- helpers shared by REP102/REP105 --------------------------------


def _open_mode(call: ast.Call) -> str:
    mode = "r"
    if len(call.args) > 1 and isinstance(call.args[1], ast.Constant) \
            and isinstance(call.args[1].value, str):
        mode = call.args[1].value
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, str):
            mode = kw.value.value
    return mode


_OPENERS = {"open", "os.fdopen", "io.open", "gzip.open", "bz2.open",
            "lzma.open"}


def _classify_write(call: ast.Call, flow: FunctionFlow) \
        -> Optional[Tuple[Optional[ast.AST], ast.AST]]:
    """``(target, payload)`` when ``call`` writes bytes somewhere.

    ``target`` is the expression naming the destination (a path, an
    fd, or the first argument of the ``open`` that produced the
    handle); ``None`` when the handle cannot be traced (attribute-held
    handles — those writes are judged by their lock discipline, not
    their name).
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_bytes", "write_text") and call.args:
            return func.value, call.args[0]
        if func.attr == "write" and call.args:
            for opener, resolved in flow.origin_calls(func.value):
                if resolved in _OPENERS:
                    mode = _open_mode(opener)
                    if any(ch in mode for ch in "wax+"):
                        target = opener.args[0] if opener.args \
                            else None
                        return target, call.args[0]
            return None
    resolved = flow.resolve(call)
    if resolved == "os.write" and len(call.args) >= 2:
        return call.args[0], call.args[1]
    if resolved in ("json.dump", "pickle.dump") \
            and len(call.args) >= 2:
        file_arg = call.args[1]
        for opener, name in flow.origin_calls(file_arg):
            if name in _OPENERS:
                target = opener.args[0] if opener.args else None
                return target, call.args[0]
        return file_arg, call.args[0]
    return None


class ArtifactWriteOutsideSeam(ProtocolChecker):
    """REP105: artifact writes that bypass the sanctioned write seam.

    The spool's whole crash model (docs/distributed.md) rests on one
    rule: a file a reader can *see* is a file a writer finished.  A
    direct ``path.write_bytes(sealed_blob)`` breaks it — a process
    dying mid-write publishes a torn artifact under its final name,
    and the seal layer can only quarantine it after the fact (the
    results document ``repro verify`` exists to defend was once
    written exactly so).  The seam in :mod:`repro.guard.faults`
    publishes atomically; routing through it is also the only way a
    write can be reached by fault injection.  An open-coded
    ``mkstemp``+``os.replace`` dance can be perfectly atomic and
    still be a hole in the robustness story — the injector cannot
    schedule ENOSPC/EIO/torn-write faults on it, so its degradation
    behaviour is never exercised, and ``docs/robustness.md``'s
    per-writer contract table silently stops being exhaustive.  Every
    write whose destination is an artifact root (or whose payload is
    sealed) must reach the disk via ``publish_bytes`` /
    ``publish_text`` or the ``vfs_*`` primitives; the seam's own
    implementation is the one sanctioned exception (suppressed there
    with a reason).
    """

    rule = "REP105"
    name = "artifact-write-outside-seam"
    description = ("sealed/artifact-root writes bypassing the "
                   "repro.guard.faults seam")
    severity = Severity.ERROR
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx: FileContext) -> None:
        flow = ctx.flow_for(node)
        classified = _classify_write(node, flow)
        if classified is None:
            return
        target, payload = classified
        sealed = self._sealed_payload(ctx, flow, payload)
        rooted = target is not None and self._rooted(
            ctx, flow, target)
        if not sealed and not rooted:
            return
        if self._sanctioned(ctx, flow):
            return
        what = "sealed payload" if sealed else "artifact-root write"
        ctx.report(
            node, self.rule, self.severity,
            f"{what} bypasses the sanctioned write seam; a crash "
            "mid-write can publish a torn artifact and fault "
            "injection cannot reach it — route it through "
            "repro.guard.faults (publish_bytes/publish_text or the "
            "vfs_* primitives)",
        )

    def _sealed_payload(self, ctx: FileContext, flow: FunctionFlow,
                        payload: ast.AST) -> bool:
        for _, resolved in flow.origin_calls(payload):
            if self._satisfies(ctx, resolved, _pred_seal, "seal"):
                return True
        # One level of caller propagation: a raw-write helper taking
        # the blob as a parameter is judged by what callers pass.
        info = self._scope_info(ctx, flow.scope)
        if info is None or ctx.index is None:
            return False
        for param in flow.origin_params(payload):
            for caller, expr in ctx.index.param_arg_exprs(info,
                                                          param):
                caller_flow = ctx.index.flow(caller)
                for _, resolved in caller_flow.origin_calls(expr):
                    if self._satisfies(ctx, resolved, _pred_seal,
                                       "seal"):
                        return True
        return False

    def _rooted(self, ctx: FileContext, flow: FunctionFlow,
                target: ast.AST) -> bool:
        roots = _ARTIFACT_ROOTS + tuple(
            getattr(ctx.config, "artifact_roots", ())
        )
        nodes = self._extended_nodes(ctx, flow, target)
        for node in nodes:
            ident = None
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            if ident and any(fnmatch(ident, p) for p in roots):
                return True
        return False

    def _sanctioned(self, ctx: FileContext, flow: FunctionFlow) -> bool:
        for call in flow.calls:
            resolved = flow.resolve(call) or _attr_chain(call.func)
            if resolved and self._satisfies(ctx, resolved,
                                            _pred_seam, "seam"):
                return True
        return False


class UncheckedSealedRead(ProtocolChecker):
    """REP102: sealed artifacts parsed without passing ``check``.

    Quarantine-never-trust (docs/robustness.md) only works if every
    sealed read goes through :func:`repro.guard.seal.check`: a loader
    that unpickles ``.task``/``.result``/``.pkl`` bytes directly will
    happily parse a torn or hand-edited file and feed garbage into
    effect computations — precisely the corruption class PR 5's
    sealing exists to catch (a truncated cache entry once parsed as a
    valid pickle carrying zeroed stats).  Wrappers count: a reader
    calling ``Spool._decode`` (which calls ``check``) is sanctioned
    through the call-graph index.
    """

    rule = "REP102"
    name = "unchecked-sealed-read"
    description = ("pickle/json loads of sealed artifact bytes "
                   "without seal.check")
    severity = Severity.ERROR
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx: FileContext) -> None:
        flow = ctx.flow_for(node)
        resolved = flow.resolve(node)
        if resolved not in _LOADERS or not node.args:
            return
        nodes = self._extended_nodes(ctx, flow, node.args[0])
        for _, origin in self._origin_calls(flow, nodes):
            if self._satisfies(ctx, origin, _pred_check, "check"):
                return
        if not self._reads_sealed(ctx, flow, nodes):
            return
        ctx.report(
            node, self.rule, self.severity,
            f"{resolved}() parses sealed artifact bytes that never "
            "passed repro.guard.seal.check; a torn or tampered file "
            "would be trusted — check (and quarantine on failure) "
            "before parsing",
        )

    def _reads_sealed(self, ctx: FileContext, flow: FunctionFlow,
                      nodes: List[ast.AST]) -> bool:
        has_read = any(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("read_bytes", "read_text", "read")
            for n in nodes
        )
        if not has_read:
            return False
        names = _SEALED_NAMES + tuple(
            getattr(ctx.config, "sealed_names", ())
        )
        for n in nodes:
            if isinstance(n, ast.Constant) \
                    and isinstance(n.value, str):
                if any(tag in n.value for tag in names):
                    return True
        return False


class NoncanonicalKeyHash(ProtocolChecker):
    """REP103: content hashes built from unstable serializations.

    A cache key must be a pure function of configuration *content*.
    ``json.dumps`` without ``sort_keys=True`` hashes dict insertion
    order; ``repr``/``str`` of dicts and sets hash memory layout and
    hash-seed order.  Either way two identical configurations stop
    sharing a cache entry — or worse, two different ones collide.
    This is the exact bug class PR 3 fixed in ``task_key`` (it once
    hashed ``json.dumps(default=str)`` output, so a reordered config
    dict re-simulated 88 cells).  Sanctioned: anything flowing
    through ``canonicalize``/``canonical_blob``/``task_key``, or
    hashes of raw bytes (seals, file digests).
    """

    rule = "REP103"
    name = "noncanonical-key-hash"
    description = ("hashing unsorted json.dumps / repr / str of "
                   "unordered containers")
    severity = Severity.ERROR
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx: FileContext) -> None:
        flow = ctx.flow_for(node)
        payload = self._hashed_payload(node, flow)
        if payload is None:
            return
        nodes = self._extended_nodes(ctx, flow, payload)
        for _, resolved in self._origin_calls(flow, nodes):
            if self._satisfies(ctx, resolved, _pred_canonical,
                               "canonical"):
                return
        reason = self._unstable_reason(flow, nodes)
        if reason is None:
            return
        ctx.report(
            node, self.rule, self.severity,
            f"content hash over {reason}; identical inputs can hash "
            "differently (and differing ones collide) — build keys "
            "through canonicalize()/canonical_blob()",
        )

    def _hashed_payload(self, node: ast.Call,
                        flow: FunctionFlow) -> Optional[ast.AST]:
        resolved = flow.resolve(node)
        if resolved in _HASH_CTORS and node.args:
            return node.args[0]
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "update" and node.args:
            for _, origin in flow.origin_calls(node.func.value):
                if origin in _HASH_CTORS:
                    return node.args[0]
        return None

    def _unstable_reason(self, flow: FunctionFlow,
                         nodes: List[ast.AST]) -> Optional[str]:
        for n in nodes:
            if not isinstance(n, ast.Call):
                continue
            resolved = flow.resolve(n)
            if resolved == "json.dumps":
                if not any(kw.arg == "sort_keys" and
                           isinstance(kw.value, ast.Constant) and
                           kw.value.value
                           for kw in n.keywords):
                    return "json.dumps(...) without sort_keys=True"
            elif resolved == "repr" and n.args and \
                    not isinstance(n.args[0], ast.Constant):
                return "repr(...) of a runtime object"
            elif resolved == "str" and n.args:
                if self._unordered_origin(flow, n.args[0]):
                    return "str(...) of an unordered container"
        return None

    def _unordered_origin(self, flow: FunctionFlow,
                          expr: ast.AST) -> bool:
        for n in flow.origin_nodes(expr):
            if isinstance(n, (ast.Dict, ast.Set, ast.DictComp,
                              ast.SetComp)):
                return True
            if isinstance(n, ast.Call) and \
                    flow.resolve(n) in ("dict", "set", "frozenset"):
                return True
        return False


# -- REP2xx ----------------------------------------------------------


class WallClockLeaseMath(ProtocolChecker):
    """REP201: wall-clock instants in lease/heartbeat arithmetic.

    The dist protocol's liveness story (docs/distributed.md "Clocks")
    is monotonic-only: lease deadlines and heartbeat instants written
    by one process are compared against another's clock, and
    ``CLOCK_MONOTONIC`` is the only clock that is shared, monotone,
    and NTP-immune on one host.  A single ``time.time()`` in that
    math means an NTP step can expire every lease at once (mass
    reclaim of live work — the classic distributed-lock postmortem)
    or keep a dead worker's lease alive indefinitely.  The rule
    flags wall-clock values assigned to deadline-ish names, stored
    under deadline-ish dict keys, passed as ttl/deadline keywords, or
    compared against monotonic values.
    """

    rule = "REP201"
    name = "wall-clock-lease-math"
    description = ("time.time() flowing into lease/deadline/"
                   "heartbeat math")
    severity = Severity.ERROR
    interests = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        flow = ctx.flow_for(node)
        for stmt in walk_scope(node):
            if isinstance(stmt, ast.Compare):
                self._check_compare(stmt, ctx, flow)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign,
                                   ast.AugAssign)):
                self._check_assign(stmt, ctx, flow)
            elif isinstance(stmt, ast.Dict):
                self._check_dict(stmt, ctx, flow)
            elif isinstance(stmt, ast.Call):
                self._check_keywords(stmt, ctx, flow)

    def _domain(self, ctx: FileContext, flow: FunctionFlow,
                expr: ast.AST) -> Tuple[bool, bool]:
        wall = mono = False
        for _, resolved in flow.origin_calls(expr):
            if self._satisfies(ctx, resolved, _pred_wall, "wall"):
                wall = True
            if self._satisfies(ctx, resolved, _pred_mono, "mono"):
                mono = True
        return wall, mono

    def _leaseish(self, flow: FunctionFlow, expr: ast.AST) -> bool:
        if flow.mentions_identifier(expr, _LEASE_IDENTS):
            return True
        return any(
            any(fnmatch(s, p) for p in _LEASE_IDENTS)
            for s in flow.origin_strings(expr)
        )

    def _check_compare(self, node: ast.Compare, ctx: FileContext,
                       flow: FunctionFlow) -> None:
        sides = [node.left, *node.comparators]
        domains = [self._domain(ctx, flow, s) for s in sides]
        any_wall = any(w for w, _ in domains)
        any_mono = any(m for _, m in domains)
        if any_wall and any_mono:
            ctx.report(
                node, self.rule, self.severity,
                "comparison mixes wall-clock and monotonic instants; "
                "the two clocks share no epoch — use time.monotonic()"
                " on both sides",
            )
            return
        if any_wall and any(
                self._leaseish(flow, s) for s, (w, _) in
                zip(sides, domains) if not w):
            ctx.report(
                node, self.rule, self.severity,
                "lease/deadline comparison against wall-clock time; "
                "an NTP step would expire or immortalize leases — "
                "use time.monotonic()",
            )

    def _check_assign(self, node: ast.AST, ctx: FileContext,
                      flow: FunctionFlow) -> None:
        value = getattr(node, "value", None)
        if value is None:
            return
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        named = []
        for target in targets:
            ident = None
            if isinstance(target, ast.Name):
                ident = target.id
            elif isinstance(target, ast.Attribute):
                ident = target.attr
            if ident is not None:
                named.append(ident)
        if not any(fnmatch(i, p) for i in named
                   for p in _LEASE_IDENTS):
            return
        wall, _ = self._domain(ctx, flow, value)
        if wall:
            ctx.report(
                node, self.rule, self.severity,
                f"deadline-like value '{named[0]}' computed from the "
                "wall clock; lease math must use time.monotonic()",
            )

    def _check_dict(self, node: ast.Dict, ctx: FileContext,
                    flow: FunctionFlow) -> None:
        for key, value in zip(node.keys, node.values):
            if key is None or not isinstance(key, ast.Constant) \
                    or not isinstance(key.value, str):
                continue
            if not any(fnmatch(key.value, p)
                       for p in _LEASE_IDENTS):
                continue
            wall, _ = self._domain(ctx, flow, value)
            if wall:
                ctx.report(
                    value, self.rule, self.severity,
                    f"protocol field '{key.value}' carries a "
                    "wall-clock instant; readers compare it against "
                    "time.monotonic() — write a monotonic value",
                )

    def _check_keywords(self, node: ast.Call, ctx: FileContext,
                        flow: FunctionFlow) -> None:
        for kw in node.keywords:
            if kw.arg is None or not any(
                    fnmatch(kw.arg, p) for p in _LEASE_IDENTS):
                continue
            wall, _ = self._domain(ctx, flow, kw.value)
            if wall:
                ctx.report(
                    kw.value, self.rule, self.severity,
                    f"keyword '{kw.arg}' receives a wall-clock "
                    "value; lease/deadline parameters are monotonic "
                    "instants",
                )


class BlockingUnderFlock(ProtocolChecker):
    """REP202: blocking calls inside an exclusive ``flock`` window.

    The journal's append lock (``exec/journal.py``) is held by every
    writer sharing a run directory — broker, workers, resumed runs.
    The window is write+flush, microseconds.  One ``time.sleep`` or
    subprocess wait inside it serializes every concurrent writer
    behind the sleeper, and a worker killed by the fault injector
    while sleeping under the lock leaves everyone else blocked until
    the kernel reaps it.  Lexical analysis: acquire/release are
    matched in source order within one scope, which is exactly how
    the sanctioned pattern (``flock``/``try``/``finally unlock``) is
    written.
    """

    rule = "REP202"
    name = "blocking-under-flock"
    description = "sleep/subprocess/IO waits while holding flock"
    severity = Severity.ERROR
    interests = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        flow = ctx.flow_for(node)
        events = []  # (pos, kind, call)
        for call in flow.calls:
            resolved = flow.resolve(call) or _attr_chain(call.func)
            if resolved is None:
                continue
            pos = (call.lineno, call.col_offset)
            if resolved == "fcntl.flock" and len(call.args) >= 2:
                flags = {
                    n.attr if isinstance(n, ast.Attribute) else n.id
                    for n in ast.walk(call.args[1])
                    if isinstance(n, (ast.Attribute, ast.Name))
                }
                if "LOCK_UN" in flags:
                    events.append((pos, "release", call))
                elif "LOCK_EX" in flags or "LOCK_SH" in flags:
                    events.append((pos, "acquire", call))
            elif self._satisfies(ctx, resolved, _pred_blocking,
                                 "blocking"):
                events.append((pos, "blocking", (call, resolved)))
        events.sort(key=lambda e: e[0])
        depth = 0
        for _, kind, payload in events:
            if kind == "acquire":
                depth += 1
            elif kind == "release":
                depth = max(0, depth - 1)
            elif depth > 0:
                call, resolved = payload
                ctx.report(
                    call, self.rule, self.severity,
                    f"{resolved}() blocks while holding an exclusive "
                    "flock; every concurrent journal writer stalls "
                    "behind this call — move it outside the lock "
                    "window",
                )


class ThreadBeforeFork(ProtocolChecker):
    """REP203: a thread running when the engine forks.

    The engine uses the ``fork`` start method (``exec/engine.py``):
    children inherit the parent's memory but only the calling thread.
    Any other thread's locks are frozen mid-state in the child — the
    canonical deadlock is a thread holding a logging or allocator
    lock at fork time, and the child hanging on its first log line.
    CPython documents the combination as unsafe; the worker runtime
    (``dist/worker.py``) is careful to start its heartbeat thread
    only in processes that never fork.  The rule flags any scope that
    starts a thread and *then* reaches a fork primitive
    (``os.fork``, ``Process``, ``Pool``, ``run_grid``), directly or
    through indexed helpers.
    """

    rule = "REP203"
    name = "thread-before-fork"
    description = "threading.Thread started before a fork primitive"
    severity = Severity.ERROR
    interests = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        flow = ctx.flow_for(node)
        start_pos = None
        for call in flow.calls:
            if not (isinstance(call.func, ast.Attribute)
                    and call.func.attr == "start"):
                continue
            for _, resolved in flow.origin_calls(call.func.value):
                if resolved == "threading.Thread":
                    pos = (call.lineno, call.col_offset)
                    if start_pos is None or pos < start_pos:
                        start_pos = pos
                    break
        if start_pos is None:
            return
        for call in flow.calls:
            if (call.lineno, call.col_offset) <= start_pos:
                continue
            resolved = flow.resolve(call) or _attr_chain(call.func)
            forks = resolved is not None and self._satisfies(
                ctx, resolved, _pred_fork, "fork")
            if not forks:
                # A callable fetched from a container (a lambda in a
                # dispatch dict, say): judge what its origin closure
                # actually calls.
                for _, origin in flow.origin_calls(call.func):
                    if self._satisfies(ctx, origin, _pred_fork,
                                       "fork"):
                        resolved = origin
                        forks = True
                        break
            if forks:
                ctx.report(
                    call, self.rule, self.severity,
                    f"{resolved}() forks after a thread was started "
                    "in this scope; the child inherits the thread's "
                    "locks frozen mid-state — fork first, or keep "
                    "this process thread-free",
                )


class UnsanctionedProcessControl(ProtocolChecker):
    """REP204: ``os._exit`` / signal manipulation outside chaos hooks.

    ``os._exit`` skips ``finally`` blocks, ``atexit``, and buffered
    flushes — which is exactly why the crash-safety layers *use* it
    to simulate real SIGKILL-grade deaths (the fault injector's kill
    mode, the broker's chaos hook, the worker's broken-pipe bailout).
    Anywhere else it is a hole in the cleanup contract: a "normal"
    path exiting via ``_exit`` loses journal flushes and leaves
    leases to expire rather than be released.  Every sanctioned site
    carries a ``noqa`` with its reason; new ones must too.
    """

    rule = "REP204"
    name = "unsanctioned-process-control"
    description = "os._exit/os.kill/signal use outside chaos hooks"
    severity = Severity.ERROR
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx: FileContext) -> None:
        resolved = ctx.resolve_call(node)
        if resolved in _PROCESS_CONTROL:
            ctx.report(
                node, self.rule, self.severity,
                f"{resolved}() bypasses cleanup (finally/atexit/"
                "flush); only the sanctioned chaos hooks may "
                "hard-kill — suppress with a reason if this is one",
            )


#: The REP1xx/REP2xx suite, in rule order (registered into
#: ``repro.analysis.checkers.ALL_CHECKERS``).
PROTOCOL_CHECKERS = (
    ArtifactWriteOutsideSeam,
    UncheckedSealedRead,
    NoncanonicalKeyHash,
    WallClockLeaseMath,
    BlockingUnderFlock,
    ThreadBeforeFork,
    UnsanctionedProcessControl,
)
