"""srclint — concurrency & resource-safety static analysis.

qlint (DESIGN §8) lints the XQuery the pipeline *produces*; srclint
lints the Python source the pipeline *is*.  The serving stack (PRs
6–9) holds ~19 locks across 16 modules, runs five daemon threads, and
threads per-request state through four ContextVars — the hazard
surface here is deadlock, leaked context, and clock misuse, not
unbound variables.  Four static passes over stdlib ``ast``:

``SC`` — lock safety
    SC001  lock-order inversion against the declared hierarchy
           (``lockorder.toml``), from ``with`` nesting and resolved
           call edges
    SC002  blocking call (``ask()``, file/socket I/O, ``sleep``,
           thread ``join``, event ``wait``) reached under a held lock
    SC003  ``named_lock()`` name not declared in the hierarchy
    SC004  raw ``threading.Lock()``/``RLock()`` instead of
           ``named_lock()`` (unranked, invisible to racecheck)

``SV`` — ContextVar hygiene
    SV001  ``ContextVar.set()`` whose token is discarded
    SV002  ``ContextVar.set()`` with no ``reset()`` anywhere in the
           module
    SV003  set and reset in the same function but the reset is not on
           all exit paths (not in a ``finally``)

``SK`` — clock discipline
    SK001  ``time.time()`` (or a value derived from it) used in
           arithmetic/comparison — deadlines and intervals must use
           the monotonic clock
    SK002  wall-clock and monotonic values mixed in one expression

``SR`` — thread/resource lifecycle
    SR001  daemon thread with no ``join()`` path in scope
    SR002  container that only ever grows in a lock-owning class

Resolution is deliberately conservative: a call edge is only followed
when the receiver is ``self``, a known metric handle, a
receiver-name hint (``self.audit`` → ``AuditLog``), or a method name
unique among lock-owning classes.  Ambiguous names (``record``) are
skipped rather than guessed — srclint is a ratchet, and a ratchet
must not slip backwards into false positives.

Suppressions: a line in ``srclint-suppress.txt`` (rule, path suffix,
symbol, reason) or an inline ``# srclint: ignore[SC002]`` comment on
the flagged line.  See DESIGN.md §13.
"""

from __future__ import annotations

import ast
import json
import os

from repro.analysis.lockorder import load_lock_order

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: rule id -> (severity, short title)
SRC_RULES = {
    "SC001": (SEVERITY_ERROR, "lock-order inversion"),
    "SC002": (SEVERITY_ERROR, "blocking call under lock"),
    "SC003": (SEVERITY_ERROR, "undeclared lock name"),
    "SC004": (SEVERITY_WARNING, "raw lock bypasses named_lock()"),
    "SV001": (SEVERITY_ERROR, "ContextVar token discarded"),
    "SV002": (SEVERITY_ERROR, "ContextVar set without reset"),
    "SV003": (SEVERITY_WARNING, "ContextVar reset not on all exit paths"),
    "SK001": (SEVERITY_ERROR, "wall clock in interval arithmetic"),
    "SK002": (SEVERITY_ERROR, "wall and monotonic clocks mixed"),
    "SR001": (SEVERITY_ERROR, "daemon thread without join path"),
    "SR002": (SEVERITY_WARNING, "unbounded growth in lock-owning class"),
}

#: Files allowed to construct raw locks (the lock factory itself).
_RAW_LOCK_ALLOWED = ("analysis/racecheck.py",)

#: receiver attribute name -> class that usually sits behind it.
_RECEIVER_HINTS = {
    "audit": "AuditLog",
    "recorder": "FlightRecorder",
    "registry": "InflightRegistry",
    "admission": "AdmissionController",
    "breaker": "CircuitBreaker",
    "breakers": "BreakerBoard",
    "brownout": "BrownoutController",
    "sampler": "TailSampler",
    "slo": "SLOEngine",
    "window": "LatencyWindow",
    "canary": "CanaryRunner",
}

_METRIC_LOCK = "obs.metrics.metric"
_REGISTRY_LOCK = "obs.metrics.registry"
_METRIC_METHODS = ("inc", "observe", "set", "add")
_GROW_METHODS = ("append", "extend", "insert", "add", "setdefault",
                 "appendleft")
_SHRINK_METHODS = ("pop", "popleft", "popitem", "clear", "remove",
                   "discard")

#: Method names too generic for unique-owner call resolution: they
#: collide with builtin container/module operations, and resolving
#: ``self._samples.get(key)`` to ``FlightRecorder.get`` would invent
#: lock edges that do not exist.  Receiver hints still resolve these.
_GENERIC_METHODS = frozenset({
    "get", "set", "items", "keys", "values", "update", "copy",
    "setdefault", "pop", "popitem", "clear", "append", "appendleft",
    "extend", "insert", "remove", "discard", "add", "count", "index",
    "sort", "reverse", "split", "strip", "format", "encode", "decode",
    "popleft", "put", "start", "stop", "run", "close", "open",
    "flush", "write", "read", "send", "record", "reset", "snapshot",
})

DEFAULT_SUPPRESS_PATH = os.path.join(
    os.path.dirname(__file__), "srclint-suppress.txt"
)
#: Default scan root: the installed ``repro`` package directory.
DEFAULT_TARGET = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SourceFinding:
    """One srclint diagnostic, anchored to file:line."""

    __slots__ = ("rule_id", "severity", "message", "path", "line", "col",
                 "symbol")

    def __init__(self, rule_id, message, path, line, col=0, symbol=""):
        self.rule_id = rule_id
        self.severity = SRC_RULES[rule_id][0]
        self.message = message
        self.path = path
        self.line = line
        self.col = col
        self.symbol = symbol

    def to_dict(self):
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
        }

    def render(self):
        where = f"{self.path}:{self.line}"
        tag = self.severity.upper()
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {tag} {self.rule_id}{sym}: {self.message}"

    def __repr__(self):
        return f"SourceFinding({self.rule_id}, {self.path}:{self.line})"


class Suppression:
    __slots__ = ("rule_id", "path_suffix", "symbol", "reason", "used")

    def __init__(self, rule_id, path_suffix, symbol, reason=""):
        self.rule_id = rule_id
        self.path_suffix = path_suffix
        self.symbol = symbol
        self.reason = reason
        self.used = False

    def matches(self, finding):
        if self.rule_id != finding.rule_id:
            return False
        norm = finding.path.replace(os.sep, "/")
        if not norm.endswith(self.path_suffix):
            return False
        if self.symbol.endswith("*"):
            return finding.symbol.startswith(self.symbol[:-1])
        return finding.symbol == self.symbol


def load_suppressions(path):
    """Parse a suppression file: ``RULE path-suffix symbol  reason``."""
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split(None, 3)
            if len(parts) < 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'RULE path symbol [reason]'"
                )
            rule_id, suffix, symbol = parts[:3]
            if rule_id not in SRC_RULES:
                raise ValueError(f"{path}:{lineno}: unknown rule {rule_id}")
            reason = parts[3] if len(parts) == 4 else ""
            entries.append(Suppression(rule_id, suffix, symbol, reason))
    return entries


class SourceReport:
    """Aggregated findings for one lint run."""

    def __init__(self, findings, suppressed, files_scanned):
        self.findings = sorted(
            findings, key=lambda f: (f.path, f.line, f.rule_id)
        )
        self.suppressed = suppressed
        self.files_scanned = files_scanned

    @property
    def errors(self):
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    @property
    def warnings(self):
        return [f for f in self.findings if f.severity == SEVERITY_WARNING]

    def ok(self, strict=False):
        if self.errors:
            return False
        return not (strict and self.warnings)

    def to_json(self):
        return json.dumps({
            "version": 1,
            "files": self.files_scanned,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": len(self.suppressed),
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
            },
            "ok": self.ok(),
        }, indent=2, sort_keys=True)

    def render_text(self):
        lines = []
        for finding in self.findings:
            lines.append(finding.render())
        lines.append(
            f"srclint: {self.files_scanned} files, "
            f"{len(self.errors)} errors, {len(self.warnings)} warnings, "
            f"{len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)

    def github_lines(self):
        out = []
        for finding in self.findings:
            level = ("error" if finding.severity == SEVERITY_ERROR
                     else "warning")
            out.append(
                f"::{level} file={finding.path},line={finding.line}"
                f"::{finding.rule_id}: {finding.message}"
            )
        return out


# -- source model -----------------------------------------------------------


class _ClassModel:
    def __init__(self, name, node, path):
        self.name = name
        self.node = node
        self.path = path
        self.locks = {}        # attr -> lock name (named_lock literal)
        self.raw_locks = {}    # attr -> line (threading.Lock()/RLock())
        self.metric_attrs = set()
        self.thread_attrs = set()
        self.event_attrs = set()
        self.containers = {}   # attr -> (kind, line)
        self.grown = {}        # attr -> [lines]
        self.guarded_growth = set()
        self.shrunk = set()
        self.methods = {}      # name -> ast.FunctionDef

    @property
    def has_lock(self):
        return bool(self.locks or self.raw_locks)


class _ModuleModel:
    def __init__(self, path, tree, source_lines):
        self.path = path
        self.tree = tree
        self.source_lines = source_lines
        self.module_locks = {}      # name -> lock name
        self.module_metrics = set()  # names bound to metric handles/dicts
        self.contextvars = set()
        self.classes = {}
        self.functions = {}         # module-level def name -> node


def _attach_parents(tree):
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node


def _call_name(node):
    """Dotted name of a call's func, e.g. ``time.sleep`` — best effort."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_named_lock_call(node):
    if not isinstance(node, ast.Call):
        return False
    name = _call_name(node.func)
    return name in ("named_lock", "racecheck.named_lock") or (
        name is not None and name.endswith(".named_lock")
    )


def _named_lock_literal(node):
    if node.args and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return node.args[0].value
    return None


def _is_raw_lock_call(node):
    if not isinstance(node, ast.Call):
        return False
    return _call_name(node.func) in (
        "threading.Lock", "threading.RLock", "Lock", "RLock"
    )


def _is_metric_factory(node):
    if not isinstance(node, ast.Call):
        return False
    name = _call_name(node.func)
    return name in ("METRICS.counter", "METRICS.gauge", "METRICS.histogram")


def _contains_metric_factory(node):
    return any(
        _is_metric_factory(child) for child in ast.walk(node)
        if isinstance(child, ast.Call)
    )


def _is_thread_ctor(node):
    if not isinstance(node, ast.Call):
        return False
    return _call_name(node.func) in ("threading.Thread", "Thread")


def _is_daemon_thread_ctor(node):
    if not _is_thread_ctor(node):
        return False
    for keyword in node.keywords:
        if keyword.arg == "daemon" and isinstance(keyword.value, ast.Constant):
            return keyword.value.value is True
    return False


def _is_event_ctor(node):
    if not isinstance(node, ast.Call):
        return False
    return _call_name(node.func) in ("threading.Event", "Event")


def _empty_container_kind(node):
    """'list' / 'dict' / 'set' / 'deque' for growable-from-empty inits."""
    if isinstance(node, ast.List) and not node.elts:
        return "list"
    if isinstance(node, ast.Dict) and not node.keys:
        return "dict"
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        if name in ("set", "dict", "list") and not node.args:
            return name if name != "dict" else "dict"
        if name in ("deque", "collections.deque"):
            has_maxlen = any(k.arg == "maxlen" for k in node.keywords)
            if not has_maxlen and not node.args:
                return "deque"
    return None


def _self_attr(node):
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _collect_module(path, source):
    tree = ast.parse(source, filename=path)
    _attach_parents(tree)
    model = _ModuleModel(path, tree, source.splitlines())
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            model.classes[node.name] = _collect_class(node, path)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.functions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            _collect_module_assign(model, node)
    return model


def _collect_module_assign(model, node):
    value = node.value
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    if value is None or not names:
        return
    if _is_named_lock_call(value):
        literal = _named_lock_literal(value)
        if literal:
            for name in names:
                model.module_locks[name] = literal
    elif isinstance(value, ast.Call) and \
            _call_name(value.func) == "ContextVar":
        model.contextvars.update(names)
    elif _is_metric_factory(value) or (
            isinstance(value, (ast.Dict, ast.DictComp))
            and _contains_metric_factory(value)):
        model.module_metrics.update(names)


def _collect_class(node, path):
    model = _ClassModel(node.name, node, path)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.methods[item.name] = item
    for method_name, method in model.methods.items():
        in_init = method_name == "__init__"
        for child in ast.walk(method):
            _collect_class_stmt(model, child, in_init)
    return model


def _collect_class_stmt(model, node, in_init):
    if isinstance(node, ast.Assign):
        for target in node.targets:
            attr = _self_attr(target)
            if attr is None:
                if isinstance(target, ast.Subscript):
                    base = _self_attr(target.value)
                    if base is not None:
                        model.grown.setdefault(base, []).append(node.lineno)
                        if _len_guarded(node, base):
                            model.guarded_growth.add(base)
                continue
            value = node.value
            if _is_named_lock_call(value):
                literal = _named_lock_literal(value)
                if literal:
                    model.locks[attr] = literal
            elif _is_raw_lock_call(value):
                model.raw_locks[attr] = node.lineno
            elif _is_metric_factory(value):
                model.metric_attrs.add(attr)
            elif _is_thread_ctor(value):
                model.thread_attrs.add(attr)
            elif _is_event_ctor(value):
                model.event_attrs.add(attr)
            elif in_init and _empty_container_kind(value) is not None:
                model.containers[attr] = (
                    _empty_container_kind(value), node.lineno
                )
            elif not in_init:
                # Reassignment outside __init__ (trim/rebuild) bounds it.
                model.shrunk.add(attr)
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                base = _self_attr(target.value)
                if base is not None:
                    model.shrunk.add(base)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        base = _self_attr(node.func.value)
        if base is None:
            return
        if node.func.attr in _GROW_METHODS:
            model.grown.setdefault(base, []).append(node.lineno)
            if _len_guarded(node, base):
                model.guarded_growth.add(base)
        elif node.func.attr in _SHRINK_METHODS:
            model.shrunk.add(base)


def _len_guarded(node, attr):
    """True when a growth site sits under ``if len(self.attr) <ok> ...``."""
    current = getattr(node, "parent", None)
    while current is not None:
        if isinstance(current, (ast.If, ast.While)):
            for child in ast.walk(current.test):
                if isinstance(child, ast.Call) and \
                        _call_name(child.func) == "len" and child.args and \
                        _self_attr(child.args[0]) == attr:
                    return True
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
        current = getattr(current, "parent", None)
    return None


# -- the analyzer -----------------------------------------------------------


class SourceLinter:
    """Run all srclint passes over a set of parsed modules."""

    def __init__(self, lock_order=None):
        self.lock_order = lock_order or load_lock_order()
        self.modules = []
        self.findings = []
        self._dedup = set()
        # Global method resolution tables, built in load().
        self._method_locks = {}     # (class, method) -> set of lock names
        self._method_blocking = {}  # (class, method) -> [(what, ...)]
        self._method_owner = {}     # method name -> set of class names
        self._classes = {}          # class name -> _ClassModel

    # -- loading ------------------------------------------------------------

    def load(self, files):
        for path in files:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            self.modules.append(_collect_module(path, source))
        for module in self.modules:
            for cls in module.classes.values():
                self._classes[cls.name] = cls
                for method_name in cls.methods:
                    self._method_owner.setdefault(
                        method_name, set()
                    ).add(cls.name)
        for module in self.modules:
            for cls in module.classes.values():
                for method_name in cls.methods:
                    self._close_method(module, cls, method_name, ())

    def _close_method(self, module, cls, method_name, stack):
        """Transitive (self-call) closure of locks acquired / blocking
        calls made by ``cls.method_name``."""
        key = (cls.name, method_name)
        if key in self._method_locks:
            return self._method_locks[key], self._method_blocking[key]
        if key in stack:
            return set(), []
        method = cls.methods.get(method_name)
        if method is None:
            return set(), []
        locks = set()
        blocking = []
        for node in ast.walk(method):
            if isinstance(node, ast.With):
                for item in node.items:
                    name = self._resolve_lock_expr(
                        module, cls, item.context_expr
                    )
                    if name:
                        locks.add(name)
            elif isinstance(node, ast.Call):
                what = self._blocking_call(module, cls, method, node)
                if what:
                    blocking.append(what)
                if isinstance(node.func, ast.Attribute) and \
                        _self_attr(node.func.value) is not None and \
                        node.func.attr in cls.methods and \
                        node.func.attr != method_name:
                    sub_locks, sub_blocking = self._close_method(
                        module, cls, node.func.attr, stack + (key,)
                    )
                    locks.update(sub_locks)
                    blocking.extend(sub_blocking)
                metric = self._metric_acquisition(module, cls, node)
                if metric:
                    locks.add(metric)
        self._method_locks[key] = locks
        self._method_blocking[key] = blocking
        return locks, blocking

    # -- resolution helpers --------------------------------------------------

    def _resolve_lock_expr(self, module, cls, expr):
        attr = _self_attr(expr)
        if attr is not None and cls is not None:
            return cls.locks.get(attr)
        if isinstance(expr, ast.Name):
            return module.module_locks.get(expr.id)
        return None

    def _metric_acquisition(self, module, cls, call):
        """Lock implied by a metric-handle method call, if any."""
        if not isinstance(call.func, ast.Attribute):
            return None
        receiver = call.func.value
        method = call.func.attr
        if isinstance(receiver, ast.Name) and receiver.id == "METRICS":
            return _REGISTRY_LOCK
        if method not in _METRIC_METHODS:
            return None
        attr = _self_attr(receiver)
        if attr is not None and cls is not None and \
                attr in cls.metric_attrs:
            return _METRIC_LOCK
        if isinstance(receiver, ast.Name) and \
                receiver.id in module.module_metrics:
            return _METRIC_LOCK
        if isinstance(receiver, ast.Subscript) and \
                isinstance(receiver.value, ast.Name) and \
                receiver.value.id in module.module_metrics:
            return _METRIC_LOCK
        if _is_metric_factory(receiver):
            # METRICS.histogram("x").observe(v): registry then metric.
            return _METRIC_LOCK
        return None

    def _blocking_call(self, module, cls, func, call):
        """Describe the blocking nature of ``call``, or None."""
        name = _call_name(call.func)
        if name in self.lock_order.blocking_calls or name in (
                "sleep", "open"):
            return name
        if not isinstance(call.func, ast.Attribute):
            return None
        method = call.func.attr
        receiver = call.func.value
        if method == "ask":
            return "ask()"
        if method == "join":
            attr = _self_attr(receiver)
            if attr is not None and cls is not None and \
                    attr in cls.thread_attrs:
                return f"self.{attr}.join()"
            if isinstance(receiver, ast.Name) and (
                    "thread" in receiver.id.lower()
                    or "worker" in receiver.id.lower()
                    or self._is_local_thread(func, receiver.id)):
                return f"{receiver.id}.join()"
            return None
        if method == "wait":
            attr = _self_attr(receiver)
            if attr is not None and cls is not None and \
                    attr in cls.event_attrs:
                return f"self.{attr}.wait()"
        return None

    def _is_local_thread(self, func, name):
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and _is_thread_ctor(node.value):
                if any(isinstance(t, ast.Name) and t.id == name
                       for t in node.targets):
                    return True
        return False

    def _resolve_call_closure(self, module, cls, call):
        """(locks, blocking) for a call's callee, or empty sets."""
        if not isinstance(call.func, ast.Attribute):
            if isinstance(call.func, ast.Name) and \
                    call.func.id in module.functions:
                return self._close_function(module, call.func.id)
            return set(), []
        method = call.func.attr
        receiver = call.func.value
        attr = _self_attr(receiver)
        if attr is not None and cls is not None and method in cls.methods:
            return (self._method_locks.get((cls.name, method), set()),
                    self._method_blocking.get((cls.name, method), []))
        hint = None
        if isinstance(receiver, ast.Attribute):
            hint = receiver.attr
        elif isinstance(receiver, ast.Name):
            hint = receiver.id
        if hint in _RECEIVER_HINTS:
            target = self._classes.get(_RECEIVER_HINTS[hint])
            if target is not None and method in target.methods:
                return (self._method_locks.get((target.name, method), set()),
                        self._method_blocking.get((target.name, method), []))
        if method in _GENERIC_METHODS:
            return set(), []
        owners = {
            owner for owner in self._method_owner.get(method, ())
            if self._classes[owner].has_lock
        }
        if len(owners) == 1:
            owner = owners.pop()
            return (self._method_locks.get((owner, method), set()),
                    self._method_blocking.get((owner, method), []))
        return set(), []

    def _close_function(self, module, name):
        """Direct lock/blocking closure for a module-level function."""
        func = module.functions.get(name)
        if func is None:
            return set(), []
        locks = set()
        blocking = []
        for node in ast.walk(func):
            if isinstance(node, ast.With):
                for item in node.items:
                    lock = self._resolve_lock_expr(module, None, item.context_expr)
                    if lock:
                        locks.add(lock)
            elif isinstance(node, ast.Call):
                what = self._blocking_call(module, None, func, node)
                if what:
                    blocking.append(what)
        return locks, blocking

    # -- findings -----------------------------------------------------------

    def _emit(self, rule_id, message, module, line, symbol):
        key = (rule_id, module.path, line, message)
        if key in self._dedup:
            return
        if self._inline_suppressed(module, line, rule_id):
            return
        self._dedup.add(key)
        self.findings.append(
            SourceFinding(rule_id, message, module.path, line, symbol=symbol)
        )

    def _inline_suppressed(self, module, line, rule_id):
        if 1 <= line <= len(module.source_lines):
            text = module.source_lines[line - 1]
            marker = "# srclint: ignore["
            index = text.find(marker)
            if index >= 0:
                ids = text[index + len(marker):].split("]")[0]
                return rule_id in [x.strip() for x in ids.split(",")]
        return False

    # -- pass: locks (SC) ----------------------------------------------------

    def run(self):
        for module in self.modules:
            self._pass_lock_declarations(module)
            self._pass_lock_flow(module)
            self._pass_contextvars(module)
            self._pass_clock(module)
            self._pass_threads(module)
            self._pass_containers(module)
        return self.findings

    def _pass_lock_declarations(self, module):
        allowed_raw = any(
            module.path.replace(os.sep, "/").endswith(suffix)
            for suffix in _RAW_LOCK_ALLOWED
        )
        for node in ast.walk(module.tree):
            if _is_named_lock_call(node):
                literal = _named_lock_literal(node)
                if literal and not self.lock_order.declared(literal):
                    self._emit(
                        "SC003",
                        f"named_lock({literal!r}) is not declared in "
                        f"{os.path.basename(self.lock_order.path or 'lockorder.toml')}",
                        module, node.lineno, self._symbol_at(module, node),
                    )
            elif not allowed_raw and isinstance(node, ast.Assign) and \
                    _is_raw_lock_call(node.value):
                self._emit(
                    "SC004",
                    "raw threading lock; use named_lock(...) so the "
                    "hierarchy and racecheck can see it",
                    module, node.lineno, self._symbol_at(module, node),
                )

    def _symbol_at(self, module, node):
        current = getattr(node, "parent", None)
        parts = []
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                parts.append(current.name)
            current = getattr(current, "parent", None)
        return ".".join(reversed(parts)) or "<module>"

    def _pass_lock_flow(self, module):
        for cls in module.classes.values():
            for method_name, method in cls.methods.items():
                symbol = f"{cls.name}.{method_name}"
                self._walk_held(module, cls, method, method.body, [], symbol)
        for name, func in module.functions.items():
            self._walk_held(module, None, func, func.body, [], name)

    def _walk_held(self, module, cls, func, body, held, symbol):
        for stmt in body:
            self._walk_stmt(module, cls, func, stmt, held, symbol)

    def _walk_stmt(self, module, cls, func, stmt, held, symbol):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def runs later, possibly on another thread; its
            # body starts with nothing held.
            self._walk_held(module, cls, stmt, stmt.body, [], symbol)
            return
        if isinstance(stmt, ast.With):
            acquired = []
            for item in stmt.items:
                lock = self._resolve_lock_expr(module, cls, item.context_expr)
                if lock:
                    self._check_acquisition(
                        module, held, lock, stmt.lineno, symbol
                    )
                    acquired.append(lock)
                self._scan_expr(module, cls, func, item.context_expr,
                                held, symbol)
            self._walk_held(module, cls, func, stmt.body,
                            held + acquired, symbol)
            return
        for field in ast.iter_child_nodes(stmt):
            if isinstance(field, ast.stmt):
                self._walk_stmt(module, cls, func, field, held, symbol)
            elif isinstance(field, ast.expr):
                self._scan_expr(module, cls, func, field, held, symbol)
            elif isinstance(field, ast.excepthandler):
                self._walk_held(module, cls, func, field.body, held, symbol)

    def _scan_expr(self, module, cls, func, expr, held, symbol):
        for node in ast.walk(expr):
            if isinstance(node, (ast.Lambda,)):
                continue
            if not isinstance(node, ast.Call):
                continue
            if not held:
                continue
            what = self._blocking_call(module, cls, func, node)
            if what:
                self._emit(
                    "SC002",
                    f"blocking call {what} while holding "
                    f"{', '.join(repr(h) for h in held)}",
                    module, node.lineno, symbol,
                )
            callee_locks, callee_blocking = self._resolve_call_closure(
                module, cls, node
            )
            for lock in callee_locks:
                self._check_acquisition(
                    module, held, lock, node.lineno, symbol
                )
            for what in callee_blocking:
                self._emit(
                    "SC002",
                    f"call reaches blocking {what} while holding "
                    f"{', '.join(repr(h) for h in held)}",
                    module, node.lineno, symbol,
                )
            metric = self._metric_acquisition(module, cls, node)
            if metric:
                self._check_acquisition(
                    module, held, metric, node.lineno, symbol
                )

    def _check_acquisition(self, module, held, lock, line, symbol):
        for holding in held:
            if holding == lock:
                continue  # re-entrant with on the same named lock
            if not self.lock_order.allows(holding, lock):
                self._emit(
                    "SC001",
                    f"acquires {lock!r} (rank "
                    f"{self.lock_order.rank(lock)}) while holding "
                    f"{holding!r} (rank {self.lock_order.rank(holding)}); "
                    "declared hierarchy requires the reverse nesting",
                    module, line, symbol,
                )

    # -- pass: ContextVars (SV) ---------------------------------------------

    def _pass_contextvars(self, module):
        if not module.contextvars:
            return
        resets = {}  # var name -> [reset call nodes]
        sets = []    # (var name, call node)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or \
                    not isinstance(node.func, ast.Attribute):
                continue
            if not isinstance(node.func.value, ast.Name):
                continue
            var = node.func.value.id
            if var not in module.contextvars:
                continue
            if node.func.attr == "set":
                sets.append((var, node))
            elif node.func.attr == "reset":
                resets.setdefault(var, []).append(node)
        for var, call in sets:
            symbol = self._symbol_at(module, call)
            parent = getattr(call, "parent", None)
            captured = isinstance(parent, (ast.Assign, ast.AnnAssign)) or (
                isinstance(parent, ast.Call)  # e.g. tokens.append(set())
            ) or isinstance(parent, ast.withitem)
            if not captured:
                self._emit(
                    "SV001",
                    f"{var}.set() token is discarded; capture it and "
                    f"reset in a finally block",
                    module, call.lineno, symbol,
                )
                continue
            if not resets.get(var):
                self._emit(
                    "SV002",
                    f"{var}.set() has no matching {var}.reset() anywhere "
                    f"in this module; the context leaks",
                    module, call.lineno, symbol,
                )
                continue
            func = self._enclosing_function(call)
            if func is None or func.name == "__enter__":
                continue  # reset lives in the paired __exit__
            local_resets = [
                r for r in resets[var]
                if self._enclosing_function(r) is func
            ]
            if not local_resets:
                continue  # reset in another method (activation object)
            if not all(self._in_finally(r, func) for r in local_resets):
                self._emit(
                    "SV003",
                    f"{var}.reset() in {func.name} is not in a finally "
                    f"block; an exception between set and reset leaks "
                    f"the context",
                    module, call.lineno, symbol,
                )

    def _enclosing_function(self, node):
        current = getattr(node, "parent", None)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = getattr(current, "parent", None)
        return None

    def _in_finally(self, node, func):
        current = getattr(node, "parent", None)
        child = node
        while current is not None and current is not func:
            if isinstance(current, ast.Try):
                if any(child is stmt or self._contains(stmt, child)
                       for stmt in current.finalbody):
                    return True
            child = current
            current = getattr(current, "parent", None)
        return False

    @staticmethod
    def _contains(tree, target):
        return any(node is target for node in ast.walk(tree))

    # -- pass: clocks (SK) ---------------------------------------------------

    def _pass_clock(self, module):
        wall = set()
        mono = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            name = _call_name(value.func)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            keys = [self._taint_key(t) for t in targets]
            keys = [k for k in keys if k]
            if name == "time.time":
                wall.update(keys)
            elif name in ("time.monotonic", "time.perf_counter",
                          "monotonic", "perf_counter"):
                mono.update(keys)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.BinOp, ast.Compare)):
                continue
            parent = getattr(node, "parent", None)
            if isinstance(parent, (ast.BinOp, ast.Compare)):
                continue  # report on the outermost arithmetic node only
            has_wall, has_mono = self._expr_taints(node, wall, mono)
            if not has_wall:
                continue
            symbol = self._symbol_at(module, node)
            if has_mono:
                self._emit(
                    "SK002",
                    "expression mixes wall-clock time.time() with "
                    "monotonic clock values",
                    module, node.lineno, symbol,
                )
            else:
                self._emit(
                    "SK001",
                    "wall-clock time.time() used in interval/deadline "
                    "arithmetic; use time.monotonic() (wall clock is for "
                    "serialized timestamps only)",
                    module, node.lineno, symbol,
                )

    @staticmethod
    def _taint_key(target):
        if isinstance(target, ast.Name):
            return target.id
        attr = _self_attr(target)
        if attr is not None:
            return f"self.{attr}"
        return None

    def _expr_taints(self, expr, wall, mono):
        has_wall = has_mono = False
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                name = _call_name(node.func)
                if name == "time.time":
                    has_wall = True
                elif name in ("time.monotonic", "time.perf_counter"):
                    has_mono = True
            key = self._taint_key(node) if isinstance(
                node, (ast.Name, ast.Attribute)) else None
            if key in wall:
                has_wall = True
            elif key in mono:
                has_mono = True
        return has_wall, has_mono

    # -- pass: threads (SR001) ----------------------------------------------

    def _pass_threads(self, module):
        for node in ast.walk(module.tree):
            if not _is_daemon_thread_ctor(node):
                continue
            symbol = self._symbol_at(module, node)
            parent = getattr(node, "parent", None)
            enclosing_class = self._enclosing_class(module, node)
            if isinstance(parent, ast.Assign) and any(
                    _self_attr(t) is not None for t in parent.targets):
                if enclosing_class is not None and \
                        self._class_has_join(enclosing_class):
                    continue
            else:
                func = self._enclosing_function(node)
                if func is not None and self._function_has_join(func):
                    continue
            self._emit(
                "SR001",
                "daemon thread has no join() path; provide a stop "
                "event and a bounded join so shutdown is clean",
                module, node.lineno, symbol,
            )

    def _enclosing_class(self, module, node):
        current = getattr(node, "parent", None)
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return module.classes.get(current.name)
            current = getattr(current, "parent", None)
        return None

    @staticmethod
    def _class_has_join(cls):
        for method in cls.methods.values():
            for node in ast.walk(method):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "join" and \
                        not isinstance(node.func.value, ast.Constant):
                    return True
        return False

    @staticmethod
    def _function_has_join(func):
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "join" and \
                    not isinstance(node.func.value, ast.Constant):
                return True
        return False

    # -- pass: containers (SR002) -------------------------------------------

    def _pass_containers(self, module):
        for cls in module.classes.values():
            if not cls.has_lock:
                continue
            for attr, (kind, _line) in cls.containers.items():
                grow_lines = cls.grown.get(attr)
                if not grow_lines:
                    continue
                if attr in cls.shrunk or attr in cls.guarded_growth:
                    continue
                self._emit(
                    "SR002",
                    f"{kind} self.{attr} only ever grows in lock-owning "
                    f"class {cls.name}; bound it (eviction, maxlen, or a "
                    f"len() guard)",
                    module, grow_lines[0], f"{cls.name}.{attr}",
                )


# -- entry points -----------------------------------------------------------


def iter_python_files(paths):
    files = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    files.append(os.path.join(dirpath, filename))
    return sorted(set(files))


def lint_paths(paths=None, lockorder_path=None, suppress_path=None,
               use_default_suppressions=True):
    """Lint ``paths`` (default: the repro package) into a SourceReport."""
    targets = list(paths) if paths else [DEFAULT_TARGET]
    files = iter_python_files(targets)
    lock_order = load_lock_order(lockorder_path)
    linter = SourceLinter(lock_order)
    linter.load(files)
    findings = linter.run()
    suppressions = []
    if use_default_suppressions:
        suppressions.extend(load_suppressions(DEFAULT_SUPPRESS_PATH))
    if suppress_path:
        suppressions.extend(load_suppressions(suppress_path))
    kept, suppressed = [], []
    for finding in findings:
        entry = next((s for s in suppressions if s.matches(finding)), None)
        if entry is not None:
            entry.used = True
            suppressed.append(finding)
        else:
            kept.append(finding)
    return SourceReport(kept, suppressed, len(files))


def render_src_rule_table():
    lines = ["rule   severity  title", "-" * 44]
    for rule_id in sorted(SRC_RULES):
        severity, title = SRC_RULES[rule_id]
        lines.append(f"{rule_id}  {severity:<8}  {title}")
    return "\n".join(lines)
