"""The ``repro-lint`` rule catalog.

Each rule is an :class:`ast.NodeVisitor` subclass registered under a
stable ``RPRxxx`` code. Rules see one module at a time through a
:class:`ModuleContext`, which classifies the file (package path, test or
source) so a rule can scope itself — e.g. RPR001 exempts the storage
layer, which *is* the accounted I/O path the rule protects.

The rules are deliberately domain-specific; generic style is ruff's job
(PR 2). What they encode is the reproduction's cost model:

* every page access must be visible to the metrics collector (RPR001,
  RPR004);
* results must be bit-reproducible across processes and platforms
  (RPR002, RPR005);
* the buffer pool's pin ledger must balance on every control-flow path,
  or fault injection turns a transient error into a wedged pool
  (RPR003);
* float equality on coordinates silently breaks exact-MBR invariants
  (RPR006);
* the vectorized kernels must stay pure — no accounted I/O, no phase
  entry, no storage/metrics imports — or their bit-identical-counters
  contract becomes unauditable (RPR007);
* shared-memory column views are written by their owning process only
  — a store into an attached column would race every other attached
  process and silently corrupt published datasets (RPR008);
* lock domains nest only in the declared lattice order (registry →
  session → pool → dataset → metrics), and every acquisition is
  released on every path (RPR009);
* shared segments follow the create→close+unlink / attach→close
  lifecycle on every non-crash path, and attachers never unlink
  (RPR010);
* service coroutines never block the event loop — no ``time.sleep``,
  thread joins, sync lattice locks, or accounted I/O outside the
  executor substrate (RPR011).

RPR003, RPR009, and RPR010 are *flow-sensitive*: they run a typestate
walker over per-function CFGs (:mod:`repro.analysis.flow`) instead of
matching statements, so custody transfers, blanket ``finally``
releases, and early returns are modelled rather than suppressed.

Suppressions (``# repro-lint: disable=RPRxxx -- reason``) are handled by
:mod:`repro.analysis.linter`; a suppression without a reason is itself a
finding (RPR000) that cannot be suppressed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from types import SimpleNamespace
from typing import Iterable, Iterator

from . import flow
from .lockspec import classify_lock_expr, may_acquire_while_holding

__all__ = ["Finding", "ModuleContext", "RULES", "Rule", "register"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


class ModuleContext:
    """One parsed module plus the path-based classification rules use.

    ``path`` may be virtual (the fixture tests lint in-memory snippets
    under invented paths); only its shape matters. Classification is by
    path segments so the linter behaves identically from any working
    directory.
    """

    def __init__(self, path: str, source: str, tree: ast.AST) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        parts = PurePosixPath(path.replace("\\", "/")).parts
        self.parts = parts
        # Module path inside the repro package, e.g. "storage/buffer.py".
        self.repro_rel: str | None = None
        if "repro" in parts:
            idx = len(parts) - 1 - parts[::-1].index("repro")
            self.repro_rel = "/".join(parts[idx + 1:])
        name = parts[-1] if parts else ""
        self.is_test = (
            "tests" in parts
            or name.startswith("test_")
            or name == "conftest.py"
        )

    def in_repro_package(self, prefix: str) -> bool:
        """Whether the module lives under ``repro/<prefix>``."""
        return self.repro_rel is not None and self.repro_rel.startswith(prefix)

    def is_repro_module(self, rel: str) -> bool:
        """Whether the module *is* ``repro/<rel>`` exactly."""
        return self.repro_rel == rel


class Rule(ast.NodeVisitor):
    """Base class: one rule instance checks one module."""

    code: str = "RPR000"
    title: str = ""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    def applies(self) -> bool:
        """Whether this rule runs on the context's module at all."""
        return True

    def run(self) -> list[Finding]:
        if self.applies():
            self.visit(self.ctx.tree)
        return self.findings

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                code=self.code,
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                message=message,
            )
        )


#: Registry code -> rule class, in catalog order.
RULES: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


# --------------------------------------------------------------------- #
# AST helpers
# --------------------------------------------------------------------- #


def _attr_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _receiver_is_disk(func: ast.Attribute) -> bool:
    """Whether a method call's receiver is (an attribute named) ``disk``."""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id == "disk"
    if isinstance(value, ast.Attribute):
        return value.attr == "disk"
    return False


def _walk_event(node: ast.AST) -> Iterator[ast.AST]:
    """Every node of one CFG event, skipping nested function bodies."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            # A nested def is one opaque event in the enclosing CFG;
            # its body gets its own CFG via _iter_functions.
            continue
        for child in ast.iter_child_nodes(current):
            stack.append(child)


def _event_calls(node: ast.AST) -> list[ast.Call]:
    """Calls inside one event, in source order, nested defs excluded."""
    calls = [n for n in _walk_event(node) if isinstance(n, ast.Call)]
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


def _names_in(expr: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _at(line: int) -> SimpleNamespace:
    """A report anchor for a source line (Rule.report reads .lineno)."""
    return SimpleNamespace(lineno=line)


def _module_summaries(ctx: ModuleContext) -> dict[str, flow.FunctionSummary]:
    """Per-module function summaries, cached on the context so every
    CFG rule shares one computation."""
    cached = getattr(ctx, "_flow_summaries", None)
    if cached is None:
        cached = flow.function_summaries(
            ctx.tree, classify_lock=classify_lock_expr
        )
        ctx._flow_summaries = cached  # type: ignore[attr-defined]
    return cached


def _iter_functions(
    tree: ast.AST,
) -> Iterator[tuple[str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """(enclosing class name, function def) for every function,
    including nested ones — each is analysed as its own CFG."""

    def recurse(node: ast.AST, cls: str | None) -> Iterator[
        tuple[str | None, ast.FunctionDef | ast.AsyncFunctionDef]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, child
                yield from recurse(child, cls)
            elif isinstance(child, ast.ClassDef):
                yield from recurse(child, child.name)
            else:
                yield from recurse(child, cls)

    yield from recurse(tree, None)


# --------------------------------------------------------------------- #
# RPR001: direct disk access outside the storage layer
# --------------------------------------------------------------------- #


@register
class DirectDiskAccess(Rule):
    """Single-page disk I/O must go through the buffer pool.

    ``disk.read`` / ``disk.write`` / ``disk.install`` bypass the
    buffer's hit/miss accounting, so counters stop matching what a real
    buffer manager would report. ``disk.free`` drops an image while a
    frame may still hold the page; ``BufferPool.free`` drops both.
    Outside ``repro/storage/`` these calls
    are flagged. The *batch* protocol (``read_run`` / ``write_run``)
    stays legal everywhere: it is the paper's explicit sequential-I/O
    channel and reports to the metrics collector itself, as do the
    unaccounted introspection entry points (``peek``, ``exists``,
    ``reset_arm``, ``allocate``).
    """

    code = "RPR001"
    title = "direct disk access outside storage/"

    _FLAGGED = ("read", "write", "install", "free")

    def applies(self) -> bool:
        return not self.ctx.is_test and not self.ctx.in_repro_package(
            "storage/"
        )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._FLAGGED
            and _receiver_is_disk(func)
        ):
            self.report(
                node,
                f"direct disk.{func.attr}() bypasses the buffer pool; "
                f"route page I/O through BufferPool so hit/miss "
                f"accounting stays truthful and no frame outlives its "
                f"page",
            )
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# RPR002: nondeterminism primitives outside workload/seeding.py
# --------------------------------------------------------------------- #


@register
class NondeterminismPrimitive(Rule):
    """Process-salted or wall-clock primitives break reproducibility.

    ``hash()`` is salted per process (the exact bug PR 3 excised from
    seed derivation), bare ``random.*`` module calls consume hidden
    global state, and wall-clock reads (``time.time``, ``datetime.now``,
    ``os.urandom``, ``uuid.uuid4``) make counters run-dependent. The one
    legal home for such primitives is :mod:`repro.workload.seeding`,
    which wraps them behind SHA-256-stable derivation. ``random.Random``
    / ``random.SystemRandom`` constructors stay legal — an explicitly
    seeded instance is the deterministic idiom. ``hash()`` stays legal
    inside ``__hash__`` implementations and hash-named helpers.
    """

    code = "RPR002"
    title = "nondeterminism primitive outside workload/seeding.py"

    _RANDOM_OK = ("Random", "SystemRandom", "seed")
    _CLOCKS = {
        ("time", "time"),
        ("time", "time_ns"),
        ("datetime", "now"),
        ("datetime", "today"),
        ("datetime", "utcnow"),
        ("date", "today"),
        ("os", "urandom"),
        ("uuid", "uuid4"),
        ("uuid", "uuid1"),
    }

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        self._func_stack: list[str] = []

    def applies(self) -> bool:
        return not self.ctx.is_repro_module("workload/seeding.py")

    def _in_hash_context(self) -> bool:
        return any("hash" in name.lower() for name in self._func_stack)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "hash":
            if not self._in_hash_context():
                self.report(
                    node,
                    "builtin hash() is salted per process; derive seeds "
                    "with repro.workload.seeding.derive_seed/stable_digest",
                )
        elif isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            if chain is not None and len(chain) == 2:
                head, attr = chain[0], chain[1]
                if head == "random" and attr not in self._RANDOM_OK:
                    self.report(
                        node,
                        f"bare random.{attr}() uses hidden global state; "
                        f"use an explicitly seeded random.Random instance",
                    )
                elif (head, attr) in self._CLOCKS:
                    self.report(
                        node,
                        f"{head}.{attr}() is wall-clock/entropy "
                        f"nondeterminism; accounting paths must be "
                        f"replayable (time.perf_counter is fine for "
                        f"wall-time reporting)",
                    )
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# RPR003: pin acquires must release on every control-flow path
# --------------------------------------------------------------------- #


#: A pin obligation: where it was taken, the handle it was bound to,
#: the canonical dump of its page-key expression, and the local list it
#: was registered into (None until registered).
_PinToken = tuple  # (line, handle | None, key | None, reg_list | None)

#: Calls that cannot raise in a way that would leak a pin (list and
#: ledger bookkeeping); everything else is treated as may-raise, which
#: is the fault-injection ground truth: any accounted read can fault.
_PIN_SAFE_ATTRS = frozenset(
    {"append", "pop", "extend", "add", "unpin", "release"}
)
_PIN_SAFE_NAMES = frozenset(
    {"len", "range", "enumerate", "sorted", "reversed", "min", "max",
     "isinstance", "list", "tuple", "set", "dict", "id", "print"}
)


@register
class PinLifecycle(Rule):
    """Every pin must be released (or custody-transferred) on every path.

    Path-sensitive rewrite of the PR 4 heuristic on the :mod:`flow`
    CFG. A pin obligation starts at ``pin=True`` / ``.pin()`` (or at a
    call into a module-local helper whose summary says it records pins
    into a list argument — the ``find_leaf_path`` shape) and is
    discharged by:

    * a matching ``.unpin(...)`` (same page-key expression, or any
      expression mentioning the pinned handle);
    * *custody transfer*: appending the handle/key into a list the
      caller owns (a parameter or closed-over name) — release becomes
      the caller's obligation, checked in the caller's CFG;
    * *registration* into a local list that an enclosing ``finally``
      blanket-releases (``for x in pins: buffer.unpin(...)``).

    Releases are recognised through *bound-method hoists* as well: the
    hot paths bind ``unpin_b = tree.buffer.unpin`` (or ``self._unpin_b
    = ...`` in a matcher object) once per run, so a call through any
    name or attribute the module ever assigns from ``<expr>.unpin`` is
    treated exactly like a direct ``.unpin(...)`` — it discharges the
    matching obligation and cannot itself raise.

    Two findings: an obligation outstanding at a function exit
    (including explicit ``raise`` paths — the finally bodies are
    inlined first, so only genuinely unreleased pins surface), and an
    obligation crossing a may-raise call with no enclosing ``finally``
    protecting it — the exact shape fault injection turns into a wedged
    buffer pool.
    """

    code = "RPR003"
    title = "pin not released on every control-flow path"

    def applies(self) -> bool:
        return not self.ctx.is_test

    def run(self) -> list[Finding]:
        if not self.applies():
            return self.findings
        self._reported: set[tuple[int, str]] = set()
        self._at_risk_lines: set[int] = set()
        self._release_names, self._release_attrs = \
            self._unpin_aliases(self.ctx.tree)
        summaries = _module_summaries(self.ctx)
        for _cls, func in _iter_functions(self.ctx.tree):
            self._check_function(func, summaries)
        self.findings.sort(key=lambda f: f.line)
        return self.findings

    # -- per-function analysis ---------------------------------------- #

    def _check_function(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        summaries: dict[str, flow.FunctionSummary],
    ) -> None:
        if not any(
            isinstance(n, ast.Call)
            and (
                flow.is_pin_acquire(n)
                or self._summary_pin_call(n, summaries) is not None
            )
            for n in flow._walk_excluding_nested(func.body)
        ):
            return  # fast path: no pin activity at all
        cfg = flow.CFG(func)
        params = set(flow._func_params(func))
        assigned = self._assigned_names(func)
        self._func_name = func.name
        self._params = params
        self._assigned = assigned
        self._summaries = summaries
        self._cfg = cfg
        exit_states = list(flow.walk(cfg, self._transfer, ()))
        for exit_state in exit_states:
            for token in exit_state.state:
                if token[0] in self._at_risk_lines:
                    continue  # the at-risk finding already names this pin
                self._note(
                    token[0],
                    f"{func.name}() takes a pin at line {token[0]} that is "
                    f"not released on every path; a surviving pin fails "
                    f"the next buffer purge",
                )

    def _summary_pin_call(
        self, call: ast.Call, summaries: dict[str, flow.FunctionSummary]
    ) -> flow.FunctionSummary | None:
        name = flow.call_name(call)
        if name is None:
            return None
        summary = summaries.get(name)
        if summary is not None and summary.pin_param is not None:
            return summary
        return None

    @staticmethod
    def _unpin_aliases(
        tree: ast.AST,
    ) -> tuple[frozenset[str], frozenset[str]]:
        """Names and attributes the module binds to an ``unpin`` method.

        Collected module-wide (hoists happen in ``__init__`` or an
        enclosing function; calls happen elsewhere), split into plain
        names (``unpin_b = buffer.unpin``) and attribute names
        (``self._unpin_b = buffer.unpin``).
        """
        names: set[str] = set()
        attrs: set[str] = set()
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "unpin"
            ):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    attrs.add(target.attr)
        return frozenset(names), frozenset(attrs)

    def _is_release(self, func_expr: ast.expr) -> bool:
        """A direct ``.unpin`` call or a call through a hoisted alias."""
        if isinstance(func_expr, ast.Attribute):
            return (
                func_expr.attr == "unpin"
                or func_expr.attr in self._release_attrs
            )
        if isinstance(func_expr, ast.Name):
            return func_expr.id in self._release_names
        return False

    @staticmethod
    def _assigned_names(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[str]:
        names: set[str] = set()
        for node in flow._walk_excluding_nested(func.body):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    names.update(_names_in(target))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                names.update(_names_in(node.target))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        names.update(_names_in(item.optional_vars))
        return names

    def _custody_out(self, list_name: str) -> bool:
        """Appending into this list transfers release duty to the caller:
        the list is a parameter or a closed-over (never locally
        assigned) name."""
        return list_name in self._params or list_name not in self._assigned

    # -- the transfer function ---------------------------------------- #

    def _transfer(
        self, state: tuple, event: flow.Event, block: flow.Block
    ) -> Iterable[tuple]:
        # The state is an *ordered* tuple of tokens (acquisition order):
        # releases and registrations match the newest obligation first,
        # which a set would scramble (and make hash-seed dependent).
        if event.kind == "with_enter" or event.kind == "with_exit":
            return (state,)
        node = event.node
        tokens = list(state)

        # Blanket release loops (``for pid in pinned: …unpin(…)``),
        # whether met as a flattened finally statement or a loop header.
        for release_list in self._blanket_release_lists(node, event.kind):
            tokens = [t for t in tokens if t[3] != release_list]
        if event.kind == "loop":
            # The loop-header event carries the whole For statement for
            # the blanket-release match above; its body statements are
            # walked as their own events, so stop here to avoid
            # double-processing them.
            return (self._dedup(tokens),)

        calls = _event_calls(node)

        # 1. At-risk check *before* this event's own effects: if any
        # may-raise call fires while an unprotected obligation is
        # outstanding, the pin leaks on the exception path.
        raising = [c for c in calls if self._may_raise(c)]
        if raising:
            for token in tokens:
                if not self._protected(token, block):
                    self._at_risk_lines.add(token[0])
                    self._note(
                        token[0],
                        f"{self._func_name}() holds a pin taken at line "
                        f"{token[0]} across a call that can raise (line "
                        f"{raising[0].lineno}) with no finally releasing "
                        f"it; an injected fault leaks the pin and wedges "
                        f"the buffer pool",
                    )

        # 2. Releases.
        for call in calls:
            if self._is_release(call.func) and call.args:
                index = self._match_token(tokens, call.args[0])
                if index is not None:
                    tokens.pop(index)

        # 3. Registrations: handle/key appended into a list, or seeding
        # a list literal with the handle.
        for call in calls:
            func_expr = call.func
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr == "append"
                and isinstance(func_expr.value, ast.Name)
                and call.args
            ):
                index = self._match_token(tokens, call.args[0])
                if index is not None:
                    tokens = self._register(
                        tokens, index, func_expr.value.id
                    )
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            target = (
                node.targets[0] if isinstance(node, ast.Assign)
                else node.target
            )
            if (
                isinstance(value, (ast.List, ast.Tuple))
                and isinstance(target, ast.Name)
            ):
                for elt in value.elts:
                    index = self._match_token(tokens, elt)
                    if index is not None:
                        tokens = self._register(tokens, index, target.id)

        # 4. Acquires: direct pins and summarised helper calls.
        for call in calls:
            if flow.is_pin_acquire(call):
                handle = self._bound_name(node, call)
                key = (
                    ast.dump(call.args[0]) if call.args else None
                )
                tokens.append((call.lineno, handle, key, None))
            else:
                summary = self._summary_pin_call(call, self._summaries)
                if summary is not None:
                    idx = summary.pin_param_index()
                    assert idx is not None
                    arg = flow.map_argument(summary, call, idx)
                    if isinstance(arg, ast.Name):
                        tokens = self._register(
                            tokens + [(call.lineno, None, None, None)],
                            len(tokens),
                            arg.id,
                        )
                    # A non-name pin-list argument (fresh literal, …)
                    # keeps custody unrepresentable; treat as caller-
                    # managed rather than guessing.

        return (self._dedup(tokens),)

    # -- helpers ------------------------------------------------------- #

    @staticmethod
    def _dedup(tokens: list) -> tuple:
        """Order-preserving dedup: a loop-carried acquire re-minting an
        identical token must converge to the same state."""
        seen: set = set()
        out: list = []
        for token in tokens:
            if token not in seen:
                seen.add(token)
                out.append(token)
        return tuple(out)

    def _register(
        self, tokens: list, index: int, list_name: str
    ) -> list:
        if self._custody_out(list_name):
            return tokens[:index] + tokens[index + 1:]
        line, handle, key, _ = tokens[index]
        out = list(tokens)
        out[index] = (line, handle, key, list_name)
        return out

    @staticmethod
    def _match_token(tokens: list, expr: ast.expr) -> int | None:
        """Newest matching obligation: same page-key expression, or any
        expression mentioning the pinned handle."""
        dump = ast.dump(expr)
        names = _names_in(expr)
        for i in range(len(tokens) - 1, -1, -1):
            line, handle, key, _reg = tokens[i]
            if key is not None and key == dump:
                return i
            if handle is not None and handle in names:
                return i
        return None

    @staticmethod
    def _bound_name(stmt: ast.AST, call: ast.Call) -> str | None:
        """The local name an acquire's result lands in, if any."""
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                return target.id
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            return stmt.target.id
        return None

    def _may_raise(self, call: ast.Call) -> bool:
        func_expr = call.func
        if self._is_release(func_expr):
            return False
        if isinstance(func_expr, ast.Attribute):
            return func_expr.attr not in _PIN_SAFE_ATTRS
        if isinstance(func_expr, ast.Name):
            return func_expr.id not in _PIN_SAFE_NAMES
        return True

    def _blanket_release_lists(
        self, node: ast.AST, kind: str
    ) -> set[str]:
        """Names of lists fully released by a ``for … in L: …unpin…``
        loop met at this event."""
        released: set[str] = set()
        loops: list[ast.For] = []
        if kind == "loop" and isinstance(node, ast.For):
            loops.append(node)
        elif kind == "final_stmt":
            loops.extend(
                n for n in ast.walk(node) if isinstance(n, ast.For)
            )
        for loop in loops:
            if not isinstance(loop.iter, ast.Name):
                continue
            if any(
                isinstance(n, ast.Call) and self._is_release(n.func)
                for n in ast.walk(loop)
            ):
                released.add(loop.iter.id)
        return released

    def _protected(self, token: _PinToken, block: flow.Block) -> bool:
        """Whether an enclosing ``finally`` active in ``block`` releases
        this obligation on the exception path."""
        for fb_index in block.protections:
            for stmt in self._cfg.finalbodies[fb_index]:
                if self._finalbody_releases(stmt, token):
                    return True
        return False

    def _finalbody_releases(
        self, stmt: ast.stmt, token: _PinToken
    ) -> bool:
        _line, handle, key, reg = token
        for node in ast.walk(stmt):
            if isinstance(node, ast.For):
                if (
                    reg is not None
                    and isinstance(node.iter, ast.Name)
                    and node.iter.id == reg
                ):
                    if any(
                        isinstance(n, ast.Call) and self._is_release(n.func)
                        for n in ast.walk(node)
                    ):
                        return True
            elif (
                isinstance(node, ast.Call)
                and self._is_release(node.func)
                and node.args
            ):
                arg = node.args[0]
                if key is not None and ast.dump(arg) == key:
                    return True
                if handle is not None and handle in _names_in(arg):
                    return True
        return False

    def _note(self, line: int, message: str) -> None:
        key = (line, message)
        if key not in self._reported:
            self._reported.add(key)
            self.report(_at(line), message)


# --------------------------------------------------------------------- #
# RPR004: accounting phases are entered by the engine only
# --------------------------------------------------------------------- #


@register
class PhaseOutsideEngine(Rule):
    """``metrics.phase(Phase.X)`` belongs to the engine and the workspace.

    Cost attribution lives in exactly one place (the PR 2 invariant): the
    pipeline executor charges join phases, and the workspace charges
    SETUP for pre-existing structures. A driver or tree entering phases
    by hand re-creates the pre-engine drift this centralisation removed.
    Module-level I/O-issuing calls are also flagged: import-time I/O runs
    outside any :class:`~repro.join.engine.ExecutionContext` phase, so
    its cost would land in whatever phase the importer happened to be in.
    """

    code = "RPR004"
    title = "accounting-phase entry outside the engine/workspace"

    _ALLOWED = ("join/engine.py", "workspace.py")
    _ALLOWED_PACKAGES = ("metrics/", "experiments/", "analysis/")
    _IO_CALLS = (
        "fetch", "read_node", "scan", "read_all", "read", "write",
        "read_run", "write_run", "window_query",
    )

    def applies(self) -> bool:
        return not self.ctx.is_test

    def _phase_entry_allowed(self) -> bool:
        return any(self.ctx.is_repro_module(m) for m in self._ALLOWED) or any(
            self.ctx.in_repro_package(p) for p in self._ALLOWED_PACKAGES
        )

    def run(self) -> list[Finding]:
        if not self.applies():
            return self.findings
        allowed = self._phase_entry_allowed()
        for node in ast.walk(self.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not allowed and self._is_phase_entry(node):
                self.report(
                    node,
                    "metrics.phase(Phase.…) outside the engine/workspace; "
                    "declare the accounting phase on the JoinPhase instead",
                )
        # Module top level: I/O-issuing calls run before any pipeline
        # phase exists.
        body = getattr(self.ctx.tree, "body", [])
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for child in ast.walk(stmt):
                if isinstance(child, ast.Call):
                    func = child.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in self._IO_CALLS
                    ):
                        self.report(
                            child,
                            f"module-level .{func.attr}() issues I/O "
                            f"outside any execution phase",
                        )
        return self.findings

    @staticmethod
    def _is_phase_entry(call: ast.Call) -> bool:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "phase"):
            return False
        for arg in call.args:
            if (
                isinstance(arg, ast.Attribute)
                and isinstance(arg.value, ast.Name)
                and arg.value.id == "Phase"
            ):
                return True
        return False


# --------------------------------------------------------------------- #
# RPR005: module-level mutable state in worker-shipped modules
# --------------------------------------------------------------------- #


@register
class ModuleLevelMutableState(Rule):
    """Worker payloads must not lean on module-level mutable state.

    The parallel executor forks workers that import the same modules; a
    module-level mutable object mutated by one process silently diverges
    from its siblings (and from a spawn-context run), breaking the
    counter-reconciliation invariant. ``global`` statements and
    module-level mutable assignments to non-constant names are flagged.
    ALL_CAPS names and dunders (``__all__``) are treated as constants by
    convention.
    """

    code = "RPR005"
    title = "module-level mutable state"

    _MUTABLE_CALLS = ("list", "dict", "set", "defaultdict", "deque",
                      "OrderedDict", "Counter")

    def applies(self) -> bool:
        return not self.ctx.is_test

    def run(self) -> list[Finding]:
        if not self.applies():
            return self.findings
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Global):
                self.report(
                    node,
                    "global statement mutates module state shared across "
                    "pool workers; thread state through the execution "
                    "context instead",
                )
        for stmt in getattr(self.ctx.tree, "body", []):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not self._is_mutable(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not self._is_constant_name(
                    target.id
                ):
                    self.report(
                        stmt,
                        f"module-level mutable {target.id!r} is shared "
                        f"state across pool workers; make it a function "
                        f"local or an ALL_CAPS constant never mutated",
                    )
        return self.findings

    @classmethod
    def _is_mutable(cls, value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in cls._MUTABLE_CALLS
        return False

    @staticmethod
    def _is_constant_name(name: str) -> bool:
        if name.startswith("__") and name.endswith("__"):
            return True
        bare = name.lstrip("_")
        return bool(bare) and bare == bare.upper()


# --------------------------------------------------------------------- #
# RPR006: raw float equality on rectangle coordinates
# --------------------------------------------------------------------- #


@register
class RawCoordinateEquality(Rule):
    """``r.xlo == x`` comparisons must use the geometry epsilon helpers.

    Coordinate arithmetic (unions, centers, enlargements) accumulates
    float error; raw ``==`` on a coordinate makes containment and
    dedup decisions flip with operation order. Use
    :func:`repro.geometry.feq` / :func:`repro.geometry.rect_approx_eq`
    (or ``pytest.approx`` in tests). The geometry package itself is
    exempt — it defines the exact-equality semantics (``Rect.__eq__``)
    the helpers are built on. The kernels package is exempt for the same
    reason: its contract is *bit-identical* agreement with the scalar
    path, so exact coordinate comparison (e.g. the sanitizer's
    cache-coherence cross-check) is the specified semantics there, and
    an epsilon would mask real divergence.
    """

    code = "RPR006"
    title = "raw float == on rectangle coordinates"

    _COORDS = ("xlo", "ylo", "xhi", "yhi")

    def applies(self) -> bool:
        return not (
            self.ctx.in_repro_package("geometry/")
            or self.ctx.in_repro_package("kernels/")
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if not (self._is_coord(left) or self._is_coord(right)):
                continue
            if self._is_approx(left) or self._is_approx(right):
                continue
            self.report(
                node,
                "raw float == on a rectangle coordinate; use "
                "repro.geometry.feq/rect_approx_eq (or pytest.approx)",
            )
            break
        self.generic_visit(node)

    @classmethod
    def _is_coord(cls, node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in cls._COORDS

    @staticmethod
    def _is_approx(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr == "approx"
        return isinstance(func, ast.Name) and func.id == "approx"


# --------------------------------------------------------------------- #
# RPR007: the kernels package must stay pure
# --------------------------------------------------------------------- #


@register
class KernelImpurity(Rule):
    """``repro.kernels`` may not touch storage, metrics, or phases.

    The kernels' correctness contract is that a batch call is a drop-in
    replacement for a scalar loop: same results, same counter deltas,
    zero hidden I/O. That is only auditable if the package is *pure* —
    callers charge the metrics collector and perform buffer fetches; the
    kernels just compute. An import of the storage or metrics layers, an
    accounted I/O call, or a phase entry inside ``kernels/`` would let
    costs originate where the differential harness cannot see them.
    ``CpuCounters`` arrives as a plain argument (``counters.xy_tests``
    is attribute arithmetic, not an import), so this rule costs the
    package nothing it needs.
    """

    code = "RPR007"
    title = "impure dependency inside the kernels package"

    _BANNED_MODULES = ("storage", "metrics", "join", "rtree", "seeded",
                       "zorder")
    _IO_CALLS = (
        "fetch", "read_node", "scan", "read_all", "read_run", "write_run",
        "new_page", "mark_dirty", "window_query",
    )

    def applies(self) -> bool:
        return self.ctx.in_repro_package("kernels/")

    def visit_If(self, node: ast.If) -> None:
        # ``if TYPE_CHECKING:`` imports never execute; typing against a
        # layer is not depending on it.
        if not self._is_type_checking(node.test):
            for stmt in node.body:
                self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    @staticmethod
    def _is_type_checking(test: ast.expr) -> bool:
        if isinstance(test, ast.Name):
            return test.id == "TYPE_CHECKING"
        return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"

    def _banned_module(self, module: str | None) -> str | None:
        if not module:
            return None
        parts = module.split(".")
        if parts[0] == "repro":
            parts = parts[1:]
        if parts and parts[0] in self._BANNED_MODULES:
            return parts[0]
        return None

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            banned = self._banned_module(alias.name)
            if banned is not None:
                self.report(
                    node,
                    f"kernels must stay pure: import of repro.{banned} "
                    f"pulls accounted machinery into the batch layer",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        banned = self._banned_module(node.module)
        if banned is not None:
            self.report(
                node,
                f"kernels must stay pure: import of repro.{banned} "
                f"pulls accounted machinery into the batch layer",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in self._IO_CALLS:
                self.report(
                    node,
                    f".{func.attr}() inside a kernel performs accounted "
                    f"I/O the differential harness cannot attribute; "
                    f"callers own all storage access",
                )
            elif func.attr == "phase":
                self.report(
                    node,
                    "phase entry inside a kernel; cost attribution "
                    "belongs to the engine, kernels just compute",
                )
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# RPR008: writes to shared column views outside the owning process
# --------------------------------------------------------------------- #


@register
class SharedColumnWrite(Rule):
    """Shared-memory columns are written only while being created.

    The pool's correctness story (``repro.parallel``) rests on published
    columns being immutable after :meth:`SharedRectBuffer.create`
    returns: attachers map read-only views, the dataset cache detects
    change through *stamps*, and no coherence protocol exists. A store
    into a column attribute — ``something.xlo[i] = v`` or
    ``dataset.oids_r.values[i] = v`` — would race every attached process
    and silently desynchronise workers from the parent. The owning
    create path writes through a local ``memoryview`` of the raw
    segment *before* any view exists, so this rule flags exactly the
    dangerous pattern and costs the implementation nothing.

    Re-enabling numpy writability on a view (``x.flags.writeable =
    True``) is the loophole that would defeat the runtime read-only
    enforcement, so it is flagged everywhere; clearing the flag
    (``= False``) is how views are made safe and stays legal.
    """

    code = "RPR008"
    title = "write to a shared/attached column view"

    #: Attribute names that expose column views: the four coordinate
    #: columns of RectArray/SharedRectArray and SharedInts.values.
    _COLUMNS = ("xlo", "ylo", "xhi", "yhi", "values")

    def applies(self) -> bool:
        # The column implementations themselves are the owners: create
        # paths fill segments before publication (attached views are
        # read-only, so a write raises off-owner at runtime).
        return not (
            self.ctx.is_test
            or self.ctx.is_repro_module("kernels/rect_array.py")
            or self.ctx.is_repro_module("parallel/shm.py")
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, None)
        self.generic_visit(node)

    def _check_target(
        self, target: ast.expr, value: ast.expr | None
    ) -> None:
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                self._check_target(element, value)
            return
        if isinstance(target, ast.Subscript):
            inner = target.value
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr in self._COLUMNS
            ):
                self.report(
                    target,
                    f"store into .{inner.attr}[...] mutates a column "
                    f"view; shared columns are written only by their "
                    f"creator, before publication — build new columns "
                    f"instead of editing in place",
                )
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "writeable"
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "flags"
        ):
            if not (
                isinstance(value, ast.Constant) and value.value is False
            ):
                self.report(
                    target,
                    "re-enabling .flags.writeable defeats the read-only "
                    "enforcement on attached shared columns",
                )


# --------------------------------------------------------------------- #
# RPR009: lock acquisitions must respect the declared lattice
# --------------------------------------------------------------------- #


@register
class LockOrderDiscipline(Rule):
    """Locks nest only in declared-lattice order; none may leak.

    The lattice lives in :mod:`repro.analysis.lockspec` (registry →
    session → pool → dataset → metrics, metrics a strict leaf) and is
    the same spec the runtime witness enforces. This rule walks each
    function's CFG with the set of possibly-held domains: a ``with`` or
    ``.acquire()`` on a domain while any *later*-ordered domain may be
    held is an inversion (the classic AB/BA deadlock shape once two
    threads disagree); a manual ``.acquire()`` whose ``.release()`` is
    missing on some path wedges the domain outright. Calls into
    module-local helpers use their flow summaries, so a helper that
    takes the pool lock is an inversion when called under the metrics
    lock even though no ``with`` is visible at the call site.
    """

    code = "RPR009"
    title = "lock acquisition violates the lock-order lattice"

    def applies(self) -> bool:
        return not self.ctx.is_test

    def run(self) -> list[Finding]:
        if not self.applies():
            return self.findings
        self._reported: set[tuple[int, str]] = set()
        summaries = _module_summaries(self.ctx)
        for cls, func in _iter_functions(self.ctx.tree):
            self._cls = cls
            self._func_name = func.name
            self._summaries = summaries
            if not self._touches_locks(func):
                continue
            cfg = flow.CFG(func)
            for exit_state in flow.walk(cfg, self._transfer, ()):
                for domain, manual, line in exit_state.state:
                    if manual:
                        self._note(
                            line,
                            f"{func.name}() acquires the {domain} lock at "
                            f"line {line} but does not release it on "
                            f"every path; use `with` or pair the acquire "
                            f"with a finally-protected release",
                        )
        self.findings.sort(key=lambda f: f.line)
        return self.findings

    def _touches_locks(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        for node in flow._walk_excluding_nested(func.body):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                return True
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) and node.func.attr in (
                    "acquire", "release"
                ):
                    return True
                name = flow.call_name(node)
                if name is not None:
                    summary = self._summaries.get(name)
                    if summary is not None and summary.lock_domains:
                        return True
        return False

    def _transfer(
        self, state: tuple, event: flow.Event, block: flow.Block
    ) -> Iterable[tuple]:
        held = list(state)
        if event.kind == "loop":
            # Loop bodies are walked as their own events; the header
            # event is only a marker here.
            return (state,)
        if event.kind == "with_enter":
            domain = classify_lock_expr(event.node, self._cls)
            if domain is not None:
                self._check(held, domain, event.node.lineno)
                held.append((domain, False, event.node.lineno))
            return (tuple(held),)
        if event.kind == "with_exit":
            domain = classify_lock_expr(event.node, self._cls)
            if domain is not None:
                self._pop(held, domain, manual=False)
            return (tuple(held),)
        for call in _event_calls(event.node):
            func_expr = call.func
            if isinstance(func_expr, ast.Attribute) and func_expr.attr in (
                "acquire", "release"
            ):
                domain = classify_lock_expr(func_expr.value, self._cls)
                if domain is None:
                    continue
                if func_expr.attr == "acquire":
                    self._check(held, domain, call.lineno)
                    held.append((domain, True, call.lineno))
                else:
                    self._pop(held, domain, manual=True)
                continue
            name = flow.call_name(call)
            if name is None or name == self._func_name:
                continue
            summary = self._summaries.get(name)
            if summary is None:
                continue
            for domain in sorted(summary.lock_domains):
                self._check(held, domain, call.lineno, via=name)
        return (tuple(held),)

    def _check(
        self,
        held: list,
        wanted: str,
        line: int,
        via: str | None = None,
    ) -> None:
        for domain, _manual, held_line in held:
            if not may_acquire_while_holding(domain, wanted):
                how = f"calling {via}() acquires" if via else "acquiring"
                self._note(
                    line,
                    f"{how} the {wanted} lock while the {domain} lock "
                    f"(taken at line {held_line}) may be held inverts "
                    f"the declared lattice "
                    f"registry→session→pool→dataset→metrics",
                )

    @staticmethod
    def _pop(held: list, domain: str, manual: bool) -> None:
        for i in range(len(held) - 1, -1, -1):
            if held[i][0] == domain and held[i][1] == manual:
                held.pop(i)
                return
        for i in range(len(held) - 1, -1, -1):
            if held[i][0] == domain:
                held.pop(i)
                return

    def _note(self, line: int, message: str) -> None:
        key = (line, message)
        if key not in self._reported:
            self._reported.add(key)
            self.report(_at(line), message)


# --------------------------------------------------------------------- #
# RPR010: shared-memory segment lifecycle
# --------------------------------------------------------------------- #

#: Classes whose ``create``/``attach`` classmethods mint shared segments.
_SHM_FACTORY_CLASSES = frozenset(
    {"SharedMemory", "SharedInts", "SharedRectBuffer", "SharedRectArray"}
)


@register
class SharedSegmentLifecycle(Rule):
    """Created segments reach close+unlink; attached ones close; never both.

    Lifecycle-level generalisation of RPR008: instead of flagging a
    statement shape, this walks the CFG with one typestate per local
    segment handle. A handle born from ``SharedMemory(create=True, …)``
    or a factory ``create(…)`` must be ``close()``d *and* ``unlink()``ed
    — or escape into an owner (returned, stored, passed on: whoever
    receives it inherits the obligation, where the ``/dev/shm`` leak
    tests and finalizers police it) — on every non-crash path. A handle
    born from ``attach(…)`` / ``SharedMemory(name=…)`` must reach
    ``close()`` the same way, and may **never** ``unlink()``: the
    attacher would tear the segment out from under every other process.
    Explicit ``raise`` paths are exempt (crash paths are the finalizer's
    and the leak harness's job); ordinary returns are not.
    """

    code = "RPR010"
    title = "shared-memory segment lifecycle violation"

    def applies(self) -> bool:
        return not self.ctx.is_test

    def run(self) -> list[Finding]:
        if not self.applies():
            return self.findings
        self._reported: set[tuple[int, str]] = set()
        for _cls, func in _iter_functions(self.ctx.tree):
            if not any(
                isinstance(n, ast.Call) and self._origin_kind(n) is not None
                for n in flow._walk_excluding_nested(func.body)
            ):
                continue
            self._func_name = func.name
            cfg = flow.CFG(func)
            for exit_state in flow.walk(cfg, self._transfer, frozenset()):
                if exit_state.kind == "raise":
                    continue
                for line, var, kind, closed, unlinked in exit_state.state:
                    if kind == "created" and not (closed and unlinked):
                        missing = (
                            "close() and unlink()" if not closed
                            else "unlink()"
                        )
                        self._note(
                            line,
                            f"{self._func_name}() creates segment "
                            f"{var!r} at line {line} but a path exits "
                            f"without {missing}; the segment leaks in "
                            f"/dev/shm until process exit",
                        )
                    elif kind == "attached" and not closed:
                        self._note(
                            line,
                            f"{self._func_name}() attaches segment "
                            f"{var!r} at line {line} but a path exits "
                            f"without close(); the mapping leaks and "
                            f"holds the segment alive",
                        )
        self.findings.sort(key=lambda f: f.line)
        return self.findings

    @staticmethod
    def _origin_kind(call: ast.Call) -> str | None:
        func_expr = call.func
        name = flow.call_name(call)
        if name == "SharedMemory":
            for kw in call.keywords:
                if (
                    kw.arg == "create"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return "created"
            return "attached"
        if name == "_attach_untracked":
            return "attached"
        if (
            isinstance(func_expr, ast.Attribute)
            and isinstance(func_expr.value, ast.Name)
            and func_expr.value.id in _SHM_FACTORY_CLASSES
        ):
            if func_expr.attr == "create":
                return "created"
            if func_expr.attr == "attach":
                return "attached"
        return None

    def _transfer(
        self, state: frozenset, event: flow.Event, block: flow.Block
    ) -> Iterable[frozenset]:
        if event.kind in ("with_enter", "with_exit", "loop"):
            return (state,)
        node = event.node
        tokens = {t[1]: t for t in state}  # var -> token

        # close()/unlink() on tracked handles.
        for call in _event_calls(node):
            func_expr = call.func
            if not (
                isinstance(func_expr, ast.Attribute)
                and isinstance(func_expr.value, ast.Name)
                and func_expr.value.id in tokens
            ):
                continue
            var = func_expr.value.id
            line, _var, kind, closed, unlinked = tokens[var]
            if func_expr.attr == "close":
                tokens[var] = (line, var, kind, True, unlinked)
            elif func_expr.attr == "unlink":
                if kind == "attached":
                    self._note(
                        call.lineno,
                        f"{self._func_name}() unlinks segment {var!r} it "
                        f"only attached; unlinking is the creator's "
                        f"prerogative — an attacher tearing the name "
                        f"down breaks every other attached process",
                    )
                else:
                    tokens[var] = (line, var, kind, closed, True)

        # Escapes: the bare handle flowing somewhere that inherits the
        # obligation (call argument, container, alias, return value).
        for escaped in self._escaped_names(node):
            tokens.pop(escaped, None)

        # New origins (after escapes: `x = attach(...)` rebinding x
        # replaces, not escapes, the old token).
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            target = (
                node.targets[0]
                if isinstance(node, ast.Assign) and len(node.targets) == 1
                else node.target if isinstance(node, ast.AnnAssign)
                else None
            )
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
            ):
                kind_new = self._origin_kind(value)
                if kind_new is not None:
                    tokens[target.id] = (
                        value.lineno, target.id, kind_new, False, False
                    )

        return (frozenset(tokens.values()),)

    @staticmethod
    def _escaped_names(node: ast.AST) -> set[str]:
        escaped: set[str] = set()

        def bare(expr: ast.AST) -> None:
            if isinstance(expr, ast.Name):
                escaped.add(expr.id)

        for n in _walk_event(node):
            if isinstance(n, ast.Call):
                for arg in n.args:
                    bare(arg)
                for kw in n.keywords:
                    bare(kw.value)
            elif isinstance(n, (ast.List, ast.Tuple, ast.Set)):
                for elt in n.elts:
                    bare(elt)
            elif isinstance(n, ast.Dict):
                for v in n.values:
                    bare(v)
            elif isinstance(n, (ast.Yield, ast.YieldFrom, ast.Await)):
                if n.value is not None:
                    bare(n.value)
        if isinstance(node, ast.Assign):
            bare(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            bare(node.value)
        elif isinstance(node, ast.Name):
            # A Return's value event is the bare expression itself.
            escaped.add(node.id)
        return escaped

    def _note(self, line: int, message: str) -> None:
        key = (line, message)
        if key not in self._reported:
            self._reported.add(key)
            self.report(_at(line), message)


# --------------------------------------------------------------------- #
# RPR011: blocking calls inside service coroutines
# --------------------------------------------------------------------- #


@register
class BlockingCallInCoroutine(Rule):
    """``async def`` bodies in the service must never block the loop.

    The resident service's latency story (PR 6's p99) rests on the
    event loop staying responsive: one blocking call in a coroutine
    stalls *every* in-flight request, the watchdog, and the health
    endpoint at once. Flagged inside ``async def`` bodies (nested sync
    helpers excluded — they run wherever they are called):
    ``time.sleep``; ``subprocess``/``os.system``; blocking socket
    methods un-awaited; zero-argument ``.join()`` / ``.get()`` /
    ``.shutdown()`` un-awaited (thread joins, queue gets, executor
    shutdowns — ``wait=False`` exempts); a sync ``with``/``.acquire()``
    on a lattice lock (await an executor hop instead — the lock may be
    held across accounted I/O); known-blocking pool teardown helpers;
    and accounted storage I/O, which belongs on the executor substrate
    where deadlines are checked at every access.
    """

    code = "RPR011"
    title = "blocking call inside a service coroutine"

    _SOCKET_BLOCKING = frozenset(
        {"recv", "recv_into", "recvfrom", "accept", "sendall"}
    )
    _ZERO_ARG_BLOCKING = frozenset({"join", "get", "shutdown"})
    _IO_CALLS = frozenset(
        {"fetch", "read_node", "read_run", "write_run", "window_query",
         "scan", "read_all", "spatial_join"}
    )
    _KNOWN_BLOCKING_FUNCS = frozenset(
        {"shutdown_default_pools", "spatial_join"}
    )

    def applies(self) -> bool:
        return not self.ctx.is_test and (
            self.ctx.in_repro_package("service/")
            or self.ctx.is_repro_module("experiments/serve.py")
        )

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        self._cls: str | None = None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        prev, self._cls = self._cls, node.name
        self.generic_visit(node)
        self._cls = prev

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        awaited: set[int] = set()
        for n in self._walk_async_body(node):
            if isinstance(n, ast.Await):
                awaited.add(id(n.value))
        for n in self._walk_async_body(node):
            if isinstance(n, (ast.With,)):
                for item in n.items:
                    domain = classify_lock_expr(item.context_expr, self._cls)
                    if domain is not None:
                        self.report(
                            item.context_expr,
                            f"sync `with` on the {domain} lock inside a "
                            f"coroutine blocks the event loop while the "
                            f"lock is contended; hop to the executor "
                            f"(run_in_executor) instead",
                        )
            elif isinstance(n, ast.Call) and id(n) not in awaited:
                self._check_call(n)
        self.generic_visit(node)

    @staticmethod
    def _walk_async_body(node: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        stack: list[ast.AST] = list(node.body)
        while stack:
            current = stack.pop()
            yield current
            for child in ast.iter_child_nodes(current):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                ):
                    continue
                stack.append(child)

    def _check_call(self, call: ast.Call) -> None:
        func = call.func
        chain = _attr_chain(func) if isinstance(func, ast.Attribute) else None
        if chain is not None and len(chain) == 2:
            head, attr = chain
            if (head, attr) == ("time", "sleep"):
                self.report(
                    call,
                    "time.sleep() inside a coroutine stalls every "
                    "in-flight request; use `await asyncio.sleep(...)`",
                )
                return
            if head == "subprocess" or (head, attr) == ("os", "system"):
                self.report(
                    call,
                    f"{head}.{attr}() blocks the event loop; run "
                    f"subprocesses via asyncio.create_subprocess_* or "
                    f"the executor",
                )
                return
        if isinstance(func, ast.Name):
            if func.id == "sleep":
                self.report(
                    call,
                    "bare sleep() inside a coroutine blocks the loop; "
                    "use `await asyncio.sleep(...)`",
                )
            elif func.id in self._KNOWN_BLOCKING_FUNCS:
                self.report(
                    call,
                    f"{func.id}() blocks (worker joins / accounted "
                    f"I/O) and would freeze the event loop; await it "
                    f"through run_in_executor",
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        if attr in self._SOCKET_BLOCKING:
            self.report(
                call,
                f"un-awaited socket .{attr}() blocks the event loop; "
                f"use the asyncio stream APIs",
            )
        elif attr in self._ZERO_ARG_BLOCKING and not call.args:
            if attr == "shutdown" and any(
                kw.arg == "wait"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in call.keywords
            ):
                return
            self.report(
                call,
                f"un-awaited .{attr}() blocks the event loop (thread "
                f"join / queue get / executor shutdown); hop to the "
                f"executor or use the async variant",
            )
        elif attr == "acquire":
            domain = classify_lock_expr(func.value, self._cls)
            if domain is not None:
                self.report(
                    call,
                    f"un-awaited .acquire() on the {domain} lock inside "
                    f"a coroutine blocks the loop while contended; hop "
                    f"to the executor instead",
                )
        elif attr in self._IO_CALLS:
            self.report(
                call,
                f"accounted .{attr}() inside a coroutine performs "
                f"blocking storage I/O on the event loop; route it "
                f"through the executor substrate where deadlines are "
                f"checked",
            )


#: Descriptions surfaced by ``repro-lint --list-rules``; RPR000 is the
#: linter-level rule for suppressions that fail to cite a reason.
RULE_SUMMARIES: dict[str, str] = {
    "RPR000": "suppression comment without a reason (unsuppressible)",
    **{code: cls.title for code, cls in RULES.items()},
}
