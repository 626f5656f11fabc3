"""REP1xx/REP2xx: who may make each protocol call.

Where REP001–REP007 police *determinism* (hidden per-process state),
these rules police the *runtime protocols* that make artifacts
trustworthy and the distributed grid crash-safe: flock'd appends,
sealed reads, canonical keys, seam writes, monotonic leases, fork and
hard exits.  Each protocol has one owner module, so each rule is a
set of rows in one table, :data:`OWNERS`: a call, and the modules
allowed to make it.  A call outside its owners is a finding.  An
owner is a module path relative to the package (``guard/lines.py``),
or ``path::function`` when only one function of the module may make
the call.  A few rules add a lexical check inside their owner, where
the shape of the protocol still matters.

Artifact integrity (REP1xx)
    * **REP102** — unpickling belongs to the journal and the spool's
      ``unpack_obj``.  In ``dist/spool.py`` and ``guard/verify.py``,
      ``json.loads`` parses only bytes that passed ``seal.check``.
    * **REP103** — hashes are built only in the modules that build
      them today, and never over ``json.dumps`` without
      ``sort_keys=True``, ``repr``, or ``str`` of a dict or set.
    * **REP105** — raw writes belong to the :mod:`repro.guard.faults`
      seam, append-mode opens to ``guard/lines.py``, and renames to
      the seam, the spool's claim and quarantine, and the kernel
      build.

Concurrency / distribution (REP2xx)
    * **REP201** — the wall clock is read only in ``obs/clock.py``,
      and its ``wall_time`` only by the telemetry that stamps
      artifacts; leases, heartbeats and deadlines stay monotonic.
    * **REP202** — ``flock`` only in ``guard/lines.py``, and no
      blocking call inside its lock window.
    * **REP203** — threads only in ``dist/worker.py``, fork
      primitives only in ``exec/engine.py``, and the worker neither
      forks nor runs a grid once its heartbeat thread has started.
    * **REP204** — ``os._exit`` / signal manipulation only at the
      sanctioned chaos hooks (suppressed there with reasons).

Call names resolve through the file's import aliases
(:meth:`~repro.analysis.core.FileContext.resolve_call`), so
``from time import time as now`` does not launder a wall-clock read.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Tuple

from .core import Checker, FileContext
from .findings import Severity

Match = Callable[[ast.Call, FileContext], bool]


def _tail(call: ast.Call, ctx: FileContext) -> Optional[str]:
    """The last segment of the called name (``Process`` for both
    ``multiprocessing.Process`` and ``context.Process``)."""
    resolved = ctx.resolve_call(call)
    if resolved is not None:
        return resolved.rsplit(".", 1)[-1]
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _named(*names: str) -> Match:
    wanted = frozenset(names)
    return lambda call, ctx: ctx.resolve_call(call) in wanted


def _tailed(*names: str) -> Match:
    wanted = frozenset(names)
    return lambda call, ctx: _tail(call, ctx) in wanted


def _origins(ctx: FileContext, expr: ast.AST) -> List[ast.AST]:
    """``expr``'s nodes plus, transitively, the nodes of every value
    assigned to a name it reads in the same function (plain
    ``name = value`` and ``with value as name``)."""
    bound: Dict[str, List[ast.AST]] = {}
    for node in ast.walk(ctx.enclosing_scope(expr)):
        pairs = []
        if isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
        elif isinstance(node, ast.AnnAssign) and node.value:
            pairs = [(node.target, node.value)]
        elif isinstance(node, ast.withitem) and node.optional_vars:
            pairs = [(node.optional_vars, node.context_expr)]
        for target, value in pairs:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    bound.setdefault(name.id, []).append(value)
    out: List[ast.AST] = []
    seen = set()
    todo = [expr]
    while todo:
        for node in ast.walk(todo.pop()):
            out.append(node)
            if isinstance(node, ast.Name) and node.id not in seen:
                seen.add(node.id)
                todo.extend(bound.get(node.id, ()))
    return out


def _calls_in(ctx: FileContext, expr: ast.AST) -> List[ast.Call]:
    return [n for n in _origins(ctx, expr) if isinstance(n, ast.Call)]


_OPENERS = {"open", "io.open", "os.fdopen", "gzip.open", "bz2.open",
            "lzma.open"}


def _open_mode(call: ast.Call, ctx: FileContext) -> Optional[str]:
    """The mode of an ``open``-like call (``?`` when not a literal,
    which counts as writing), or ``None`` when ``call`` opens
    nothing."""
    if ctx.resolve_call(call) not in _OPENERS:
        return None
    mode = call.args[1] if len(call.args) > 1 else None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "?"


def _raw_write(call: ast.Call, ctx: FileContext) -> bool:
    """``.write_bytes``/``.write_text``, ``os.write``, ``json.dump``/
    ``pickle.dump``, or ``.write`` on a handle opened for writing."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_bytes", "write_text"):
            return True
        if func.attr == "write":
            return any(
                ch in (_open_mode(opener, ctx) or "")
                for opener in _calls_in(ctx, func.value)
                for ch in "wax+?"
            )
    return ctx.resolve_call(call) in ("os.write", "json.dump",
                                      "pickle.dump")


def _append_open(call: ast.Call, ctx: FileContext) -> bool:
    return "a" in (_open_mode(call, ctx) or "")


def _unpickle(call: ast.Call, ctx: FileContext) -> bool:
    resolved = ctx.resolve_call(call) or ""
    return resolved in ("pickle.loads", "pickle.load") \
        or resolved.startswith("marshal.")


_HASH_CTORS = ("hashlib.sha256", "hashlib.sha384", "hashlib.sha512",
               "hashlib.sha1", "hashlib.md5", "hashlib.blake2b",
               "hashlib.blake2s", "hashlib.sha3_256", "hashlib.new")

#: Last-segment names of the primitives that start a child process.
_FORKS = ("fork", "Process", "Pool", "ProcessPoolExecutor")

#: The seam-ownership table: ``(rule, what, match, owners)``.  Every
#: call ``match`` accepts must sit in one of ``owners``.
OWNERS: Tuple[Tuple[str, str, Match, Tuple[str, ...]], ...] = (
    ("REP102", "unpickling", _unpickle,
     ("exec/journal.py", "dist/spool.py::unpack_obj")),
    ("REP103", "a hash constructor", _named(*_HASH_CTORS),
     ("analysis/findings.py", "cpu/native.py", "exec/cache.py",
      "exec/fault.py", "exec/journal.py", "guard/audit.py",
      "guard/seal.py", "obs/manifest.py", "obs/stream.py",
      "workloads/trace.py")),
    ("REP105", "a raw write", _raw_write,
     ("guard/faults.py", "analysis/config.py::write_baseline",
      "analysis/core.py::fix_unused_noqa")),
    ("REP105", "an append-mode open", _append_open,
     ("guard/lines.py",)),
    ("REP105", "a rename", _named("os.rename", "os.replace"),
     ("guard/faults.py::vfs_replace", "dist/spool.py::claim",
      "dist/spool.py::quarantine", "cpu/native.py::_build")),
    ("REP201", "a wall-clock read",
     _named("time.time", "time.time_ns", "datetime.datetime.now",
            "datetime.datetime.utcnow"),
     ("obs/clock.py",)),
    ("REP201", "wall_time()", _tailed("wall_time"),
     ("obs/fleet.py", "obs/manifest.py", "obs/span.py",
      "obs/stream.py")),
    ("REP202", "fcntl.flock", _named("fcntl.flock"),
     ("guard/lines.py",)),
    ("REP203", "a thread", _named("threading.Thread"),
     ("dist/worker.py",)),
    ("REP203", "a fork primitive", _tailed(*_FORKS),
     ("exec/engine.py",)),
)


def _in_module(ctx: FileContext, module: str) -> bool:
    return f"/{ctx.path}".endswith(f"/{module}")


def _owned(ctx: FileContext, node: ast.AST,
           owners: Tuple[str, ...]) -> bool:
    for owner in owners:
        module, _, function = owner.partition("::")
        if _in_module(ctx, module) and (
                not function or function == getattr(
                    ctx.enclosing_scope(node), "name", None)):
            return True
    return False


def _before(a: ast.AST, b: ast.AST) -> bool:
    return (a.lineno, a.col_offset) < (b.lineno, b.col_offset)


def _scope_calls(ctx: FileContext, node: ast.AST) -> List[ast.Call]:
    """Every call in the function enclosing ``node`` (lambdas
    included, nested functions not), in source order."""
    scope = ctx.enclosing_scope(node)
    calls = [n for n in ast.walk(scope) if isinstance(n, ast.Call)
             and ctx.enclosing_scope(n) is scope]
    return sorted(calls, key=lambda n: (n.lineno, n.col_offset))


class SeamRule(Checker):
    """One rule's rows of :data:`OWNERS`, plus its in-owner check."""

    severity = Severity.ERROR
    interests = (ast.Call,)
    #: What to do instead, appended to every ownership finding.
    remedy = ""

    def visit(self, node: ast.Call, ctx: FileContext) -> None:
        for rule, what, match, owners in OWNERS:
            if rule == self.rule and match(node, ctx) \
                    and not _owned(ctx, node, owners):
                ctx.report(
                    node, self.rule, self.severity,
                    f"{what} outside its owner(s) "
                    f"{', '.join(owners)}; {self.remedy}",
                )
                return
        self.inside(node, ctx)

    def inside(self, node: ast.Call, ctx: FileContext) -> None:
        """The lexical check on a call the table allows here."""


class UncheckedSealedRead(SeamRule):
    """REP102: unpickling outside its owners; sealed JSON parsed
    without ``check``.

    Quarantine-never-trust (docs/robustness.md) only works if every
    sealed read goes through :func:`repro.guard.seal.check`: a loader
    that parses a torn or hand-edited file feeds garbage into effect
    computations — the corruption class sealing exists to catch (a
    truncated cache entry once parsed as a valid pickle carrying
    zeroed stats).  The journal unpickles lines it checksums itself,
    the spool only the pickle embedded in a checked ticket; in the
    spool and the results loader, ``json.loads`` must parse bytes
    that a ``check``/``check_seal`` call in the same function
    returned.
    """

    rule = "REP102"
    name = "unchecked-sealed-read"
    description = ("unpickling outside its owners, or sealed JSON "
                   "parsed without seal.check")
    remedy = ("read sealed artifacts through the spool, the journal "
              "or load_results, which check before they parse")

    def inside(self, node: ast.Call, ctx: FileContext) -> None:
        resolved = ctx.resolve_call(node)
        if resolved not in ("json.loads", "json.load") \
                or not node.args \
                or not any(_in_module(ctx, m) for m in
                           ("dist/spool.py", "guard/verify.py")):
            return
        if any(_tail(call, ctx) in ("check", "check_seal")
               for call in _calls_in(ctx, node.args[0])):
            return
        ctx.report(
            node, self.rule, self.severity,
            f"{resolved}() parses sealed artifact bytes that never "
            "passed repro.guard.seal.check; a torn or tampered file "
            "would be trusted — check (and quarantine on failure) "
            "before parsing",
        )


class NoncanonicalKeyHash(SeamRule):
    """REP103: hashes built outside their owners, or over unstable
    serializations.

    A cache key must be a pure function of configuration *content*.
    ``json.dumps`` without ``sort_keys=True`` hashes dict insertion
    order; ``repr``/``str`` of dicts and sets hash memory layout and
    hash-seed order.  Either way two identical configurations stop
    sharing a cache entry — or worse, two different ones collide.
    This is the bug class fixed once in ``task_key`` (it hashed
    ``json.dumps(default=str)`` output, so a reordered config dict
    re-simulated 88 cells).  Within an owner, the hashed expression —
    of the constructor or of a later ``.update`` — is followed
    through plain local assignments.
    """

    rule = "REP103"
    name = "noncanonical-key-hash"
    description = ("hash built outside its owners, or over unsorted "
                   "json.dumps / repr / str of unordered containers")
    remedy = ("build content keys through task_key()/canonical_blob()"
              " in repro.exec.cache")

    def inside(self, node: ast.Call, ctx: FileContext) -> None:
        if not node.args:
            return
        hashes = ctx.resolve_call(node) in _HASH_CTORS
        if not hashes and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "update":
            hashes = any(ctx.resolve_call(call) in _HASH_CTORS
                         for call in _calls_in(ctx, node.func.value))
        reason = hashes and self._unstable(ctx, node.args[0])
        if reason:
            ctx.report(
                node, self.rule, self.severity,
                f"content hash over {reason}; identical inputs can "
                "hash differently (and differing ones collide) — "
                "build keys through canonicalize()/canonical_blob()",
            )

    def _unstable(self, ctx: FileContext,
                  expr: ast.AST) -> Optional[str]:
        for call in _calls_in(ctx, expr):
            resolved = ctx.resolve_call(call)
            if resolved == "json.dumps" and not any(
                    kw.arg == "sort_keys"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value for kw in call.keywords):
                return "json.dumps(...) without sort_keys=True"
            if resolved == "repr" and call.args \
                    and not isinstance(call.args[0], ast.Constant):
                return "repr(...) of a runtime object"
            if resolved == "str" and call.args and any(
                    isinstance(n, (ast.Dict, ast.Set, ast.DictComp,
                                   ast.SetComp))
                    or isinstance(n, ast.Call) and ctx.resolve_call(n)
                    in ("dict", "set", "frozenset")
                    for n in _origins(ctx, call.args[0])):
                return "str(...) of an unordered container"
        return None


class ArtifactWriteOutsideSeam(SeamRule):
    """REP105: raw writes, appends and renames outside their owners.

    The spool's whole crash model (docs/distributed.md) rests on one
    rule: a file a reader can *see* is a file a writer finished.  A
    direct ``path.write_bytes(blob)`` breaks it — a process dying
    mid-write publishes a torn artifact under its final name (the
    results document ``repro verify`` exists to defend was once
    written exactly so).  The seam in :mod:`repro.guard.faults`
    publishes atomically, and routing through it is the only way a
    write can be reached by fault injection: an open-coded
    temp+``os.replace`` dance can be perfectly atomic and still never
    see an injected ENOSPC/EIO/torn write, so ``docs/robustness.md``'s
    per-writer contract table silently stops being exhaustive.
    Append-mode handles belong to the sealed-line appender, and the
    only renames outside the seam are the spool's claim and
    quarantine (the rename *is* the protocol) and the kernel build's
    publish of a content-addressed artifact.  The analyzer's own
    baseline and noqa rewrites are the one non-artifact writers.
    """

    rule = "REP105"
    name = "artifact-write-outside-seam"
    description = ("raw write, append-mode open or rename outside "
                   "the repro.guard.faults seam and its owners")
    remedy = ("a crash mid-write can publish a torn artifact and "
              "fault injection cannot reach it — route it through "
              "repro.guard.faults (publish_bytes/publish_text or the "
              "vfs_* primitives) or repro.guard.lines.Appender")


class WallClockLeaseMath(SeamRule):
    """REP201: wall-clock reads outside ``obs/clock.py``.

    The dist protocol's liveness story (docs/distributed.md "Clocks")
    is monotonic-only: lease deadlines and heartbeat instants written
    by one process are compared against another's clock, and
    ``CLOCK_MONOTONIC`` is the only clock that is shared, monotone
    and NTP-immune on one host.  A single ``time.time()`` in that
    math means an NTP step can expire every lease at once (mass
    reclaim of live work) or keep a dead worker's lease alive.  The
    wall clock therefore has one reader, ``obs/clock.py``, whose
    ``wall_time`` only the telemetry modules call, to stamp
    artifacts; nothing else may read it.
    """

    rule = "REP201"
    name = "wall-clock-lease-math"
    description = ("wall-clock read outside obs/clock.py, or "
                   "wall_time() outside the telemetry modules")
    remedy = ("lease/deadline/heartbeat math must use "
              "time.monotonic(); only telemetry stamps wall time")


_BLOCKING_CALLS = {
    "time.sleep", "subprocess.run", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "subprocess.Popen", "os.system", "os.wait", "os.waitpid",
    "select.select", "input", "socket.create_connection",
    "urllib.request.urlopen",
}


class BlockingUnderFlock(SeamRule):
    """REP202: ``flock`` outside ``guard/lines.py``; blocking calls
    inside its lock window.

    The sealed-line append lock is held by every journal,
    cache-segment and event-lane writer sharing a run directory —
    broker, workers, resumed runs.  The window is write+flush,
    microseconds.  One ``time.sleep`` or subprocess wait inside it
    serializes every concurrent writer behind the sleeper, and a
    worker killed while sleeping under the lock leaves everyone else
    blocked until the kernel reaps it.  Inside the owner,
    acquire/release are matched in source order within one function,
    which is exactly how the ``flock``/``try``/``finally unlock``
    pattern is written.
    """

    rule = "REP202"
    name = "blocking-under-flock"
    description = ("flock outside guard/lines.py, or sleep/"
                   "subprocess/IO waits while holding it")
    remedy = "append through repro.guard.lines.Appender"

    def inside(self, node: ast.Call, ctx: FileContext) -> None:
        resolved = ctx.resolve_call(node)
        if resolved not in _BLOCKING_CALLS \
                or not _in_module(ctx, "guard/lines.py"):
            return
        depth = 0
        for call in _scope_calls(ctx, node):
            if not _before(call, node):
                break
            if ctx.resolve_call(call) == "fcntl.flock" \
                    and len(call.args) >= 2:
                flags = {n.attr if isinstance(n, ast.Attribute)
                         else n.id for n in ast.walk(call.args[1])
                         if isinstance(n, (ast.Attribute, ast.Name))}
                if "LOCK_UN" in flags:
                    depth = max(0, depth - 1)
                elif flags & {"LOCK_EX", "LOCK_SH"}:
                    depth += 1
        if depth:
            ctx.report(
                node, self.rule, self.severity,
                f"{resolved}() blocks while holding an exclusive "
                "flock; every concurrent journal writer stalls behind "
                "this call — move it outside the lock window",
            )


#: Last-segment names of the grid entry points (they fork pools).
_GRIDS = ("run_grid", "run_dist")


class ThreadBeforeFork(SeamRule):
    """REP203: threads and forks outside their owners; a fork or grid
    after the worker's thread start.

    The engine uses the ``fork`` start method (``exec/engine.py``):
    children inherit the parent's memory but only the calling thread.
    Any other thread's locks are frozen mid-state in the child — the
    canonical deadlock is a thread holding a logging or allocator
    lock at fork time, and the child hanging on its first log line.
    So fork primitives live in the engine alone and threads in the
    dist worker alone, and inside the worker no call after
    ``thread.start()`` may reach a fork primitive or a grid entry
    point — directly, through a dispatch-dict lambda, or through a
    function of the worker module.
    """

    rule = "REP203"
    name = "thread-before-fork"
    description = ("thread outside dist/worker.py, fork outside "
                   "exec/engine.py, or a fork after the worker's "
                   "thread start")
    remedy = ("fork only in the engine, and keep processes that fork "
              "thread-free")

    def begin_file(self, ctx: FileContext) -> None:
        self._defs: Optional[Dict[str, List[ast.AST]]] = None

    def inside(self, node: ast.Call, ctx: FileContext) -> None:
        if not _in_module(ctx, "dist/worker.py"):
            return
        reached = self._reaches(node, ctx, set())
        if reached is None or not any(
                self._starts_thread(call, ctx)
                and _before(call, node)
                for call in _scope_calls(ctx, node)):
            return
        called = _tail(node, ctx)
        if called != reached:
            called = f"{called}() reaches {reached}(), which"
        else:
            called += "()"
        ctx.report(
            node, self.rule, self.severity,
            f"{called} forks after a thread was started in this "
            "scope; the child inherits the thread's locks frozen "
            "mid-state — fork first, or keep this process thread-free",
        )

    @staticmethod
    def _starts_thread(call: ast.Call, ctx: FileContext) -> bool:
        return isinstance(call.func, ast.Attribute) \
            and call.func.attr == "start" and any(
                ctx.resolve_call(c) == "threading.Thread"
                for c in _calls_in(ctx, call.func.value))

    def _reaches(self, node: ast.Call, ctx: FileContext,
                 seen: set) -> Optional[str]:
        """The fork primitive or grid entry ``node`` calls, directly or
        through this module's own functions (``f()``, ``self.f()``)."""
        tail = _tail(node, ctx)
        if tail in _FORKS or tail in _GRIDS:
            return tail
        func = node.func
        local = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self" else None)
        if self._defs is None:
            self._defs = {}
            for n in ast.walk(ctx.tree):
                if isinstance(n, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                    self._defs.setdefault(n.name, []).append(n)
        if local is None or local in seen:
            return None
        seen.add(local)
        for body in self._defs.get(local, ()):
            for call in ast.walk(body):
                if isinstance(call, ast.Call):
                    reached = self._reaches(call, ctx, seen)
                    if reached is not None:
                        return reached
        return None


_PROCESS_CONTROL = {
    "os._exit", "os.abort", "os.kill", "os.killpg",
    "signal.signal", "signal.raise_signal", "signal.setitimer",
    "signal.alarm", "signal.pthread_kill",
}


class UnsanctionedProcessControl(Checker):
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
