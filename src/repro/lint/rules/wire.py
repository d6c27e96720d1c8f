"""WIRE — wire-protocol conformance rules.

The distributed harness speaks a 6-frame-type versioned protocol
(``repro/exp/protocol.py``); the coordinator
(``repro/exp/backends/socket.py``) and the worker
(``repro/exp/worker.py``) each implement one side of the frame state
machine.  PRs 7–9 proved by hand that the two machines are duals —
every frame one side emits, the other dispatches on, and every
dispatch chain fails closed.  These rules extract both machines
statically and re-prove the duality on every lint run, so a handler
branch cannot be deleted (or a frame type added) without the linter
exiting nonzero.

Frame *sends* are recognised as dict literals carrying a
``"type": "<ALL-CAPS>"`` key — the harness builds every outbound frame
that way, and lowercase ``type`` dicts (journal events, task specs)
are deliberately ignored.  Frame *handling* is recognised as equality
/ membership comparisons against MESSAGE_TYPES vocabulary constants.

WIRE501  duality: a sent type must be in MESSAGE_TYPES, a type one
         side sends must be dispatched by the other, and every
         vocabulary entry must have a handler on at least one side.
WIRE502  a dispatch chain (two or more vocabulary comparisons in one
         function) must end fail-closed: a bare ``raise`` after the
         last dispatch arm, or a raising ``else``.  Silently dropping
         an unknown frame is how version skew becomes data loss.
WIRE503  a wire-derived value (from ``recv_frame``/``decode_body`` or
         a message-like parameter) must pass through a validator
         before reaching a filesystem path sink — a lightweight
         intra-module taint walk.
WIRE504  fields listed in ``protocol.VERSION_GATED_FIELDS`` may only
         be read in modules that gate on the protocol version
         (``check_versions`` or a ``PROTOCOL_VERSION`` reference).

All four are project-scope and locate their anchors by path suffix,
so they run identically on the real tree and on fixture trees; when
an anchor is missing from the lint set they stay silent (single-file
runs must not produce phantom duality findings).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..engine import FileContext
from ..project import (FUNC_NODES, ProjectIndex, frozenset_strings,
                       global_assign, own_body_nodes)
from ..registry import Rule, register
from ..violations import Violation

__all__ = ["FrameDuality", "DispatchFailClosed", "WireTaintToPath",
           "VersionGatedFieldRead"]

_PROTOCOL_SUFFIX = "repro/exp/protocol.py"
_WORKER_SUFFIX = "repro/exp/worker.py"
_COORDINATOR_SUFFIX = "repro/exp/backends/socket.py"

#: Importing any of these names from the protocol module makes a file
#: a wire endpoint (it parses or emits frames itself).
_PROTOCOL_IO = {"send_frame", "recv_frame", "decode_body",
                "encode_frame", "check_versions"}

#: Parameter names treated as wire-derived for the WIRE503 taint walk.
_MESSAGE_PARAMS = {"message", "msg", "reply", "frame", "welcome",
                   "body", "payload"}

#: Call chains that consume a filesystem path (taint sinks).
_PATH_SINKS = {
    "os.open", "os.remove", "os.unlink", "os.rename", "os.replace",
    "os.makedirs", "os.mkdir", "os.rmdir", "os.path.join",
    "pathlib.Path", "shutil.rmtree", "shutil.copy", "shutil.copyfile",
    "shutil.move",
}

#: Function-name fragments that launder a wire value (validators).
_SANITIZER_FRAGMENTS = ("valid", "check", "sanit", "key")
_SANITIZER_NAMES = {"int", "float", "len", "bool"}


def _sorted_by_pos(nodes: Sequence[ast.AST]) -> List[ast.AST]:
    return sorted(nodes, key=lambda n: (n.lineno, n.col_offset))


def _message_vocab(index: ProjectIndex) -> Tuple[Optional[FileContext],
                                                 Set[str]]:
    proto = index.find(_PROTOCOL_SUFFIX)
    if proto is None:
        return None, set()
    node = global_assign(proto, "MESSAGE_TYPES")
    if node is None:
        return proto, set()
    types = frozenset_strings(node.value)
    return proto, set(types or ())


def _sent_types(ctx: FileContext) -> Dict[str, ast.AST]:
    """Frame type -> first dict-literal construction site.

    A send is a ``{..., "type": "<ALL-CAPS>", ...}`` literal: every
    outbound frame in the harness is built as one, while journal
    events and task specs use lowercase ``type`` tags.
    """
    out: Dict[str, ast.AST] = {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if not (isinstance(key, ast.Constant) and key.value == "type"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                continue
            mtype = value.value
            if not mtype or mtype != mtype.upper():
                continue
            if mtype not in out:
                out[mtype] = node
    return out


def _compared_constants(test: ast.AST, vocab: Set[str],
                        positive_only: bool = False) -> Set[str]:
    """Vocabulary constants an expression compares against."""
    found: Set[str] = set()
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare):
            continue
        ops_ok = (all(isinstance(op, ast.Eq) for op in node.ops)
                  if positive_only else
                  all(isinstance(op, (ast.Eq, ast.NotEq, ast.In))
                      for op in node.ops))
        if not ops_ok:
            continue
        for side in [node.left] + list(node.comparators):
            if (isinstance(side, ast.Constant)
                    and isinstance(side.value, str)
                    and side.value in vocab):
                found.add(side.value)
            elif isinstance(side, (ast.Tuple, ast.Set, ast.List)):
                for elt in side.elts:
                    if (isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                            and elt.value in vocab):
                        found.add(elt.value)
    return found


def _handled_types(ctx: FileContext, vocab: Set[str]) -> Set[str]:
    found: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Compare):
            found |= _compared_constants(node, vocab)
    return found


def _is_endpoint(index: ProjectIndex, ctx: FileContext) -> bool:
    if ctx.rel.endswith(_PROTOCOL_SUFFIX):
        return False
    for name, parts in index.imports(ctx).items():
        if (name in _PROTOCOL_IO and len(parts) >= 2
                and parts[-2] == "protocol"):
            return True
    return False


@register
class FrameDuality(Rule):
    id = "WIRE501"
    name = "frame-duality"
    summary = ("every frame type one side sends must be in "
               "MESSAGE_TYPES and dispatched by the other side, and "
               "every vocabulary entry must have a handler somewhere")
    scope = "project"

    def check_project(self, files: Dict[str, FileContext],
                      index: Optional[ProjectIndex] = None
                      ) -> Iterator[Violation]:
        index = index or ProjectIndex(files)
        proto, vocab = _message_vocab(index)
        worker = index.find(_WORKER_SUFFIX)
        coord = index.find(_COORDINATOR_SUFFIX)
        if proto is None or not vocab or worker is None or coord is None:
            return  # an anchor is outside the lint set; stay silent
        w_sent = _sent_types(worker)
        c_sent = _sent_types(coord)
        w_handled = _handled_types(worker, vocab)
        c_handled = _handled_types(coord, vocab)
        for mtype, node in sorted(w_sent.items()):
            if mtype not in vocab:
                yield self.violation(
                    worker, node,
                    f"worker builds a frame of type {mtype!r} that is "
                    f"not in protocol.MESSAGE_TYPES — the coordinator's "
                    f"fail-closed dispatch will kill the connection on "
                    f"first contact")
            elif mtype not in c_handled:
                yield self.violation(
                    worker, node,
                    f"worker sends {mtype!r} but the coordinator never "
                    f"dispatches on it — the frame falls into the "
                    f"coordinator's fail-closed arm and the session "
                    f"dies")
        for mtype, node in sorted(c_sent.items()):
            if mtype not in vocab:
                yield self.violation(
                    coord, node,
                    f"coordinator builds a frame of type {mtype!r} "
                    f"that is not in protocol.MESSAGE_TYPES — the "
                    f"worker's dispatch cannot have a matching arm")
            elif mtype not in w_handled:
                yield self.violation(
                    coord, node,
                    f"coordinator sends {mtype!r} but the worker never "
                    f"dispatches on it — the frame is dead on arrival")
        anchor = global_assign(proto, "MESSAGE_TYPES")
        for mtype in sorted(vocab):
            if mtype not in (w_handled | c_handled):
                yield self.violation(
                    proto, anchor,
                    f"MESSAGE_TYPES entry {mtype!r} has no dispatch "
                    f"arm in either the worker or the coordinator — a "
                    f"vocabulary entry nobody handles is either dead "
                    f"protocol surface or a silently-dropped frame")


@register
class DispatchFailClosed(Rule):
    id = "WIRE502"
    name = "dispatch-fail-closed"
    summary = ("a frame dispatch chain (>=2 vocabulary comparisons in "
               "one function) must end in a raise — unknown frames "
               "must not be silently dropped")
    scope = "project"

    def check_project(self, files: Dict[str, FileContext],
                      index: Optional[ProjectIndex] = None
                      ) -> Iterator[Violation]:
        index = index or ProjectIndex(files)
        proto, vocab = _message_vocab(index)
        if proto is None or not vocab:
            return
        for ctx in index.sorted_contexts():
            if not _is_endpoint(index, ctx):
                continue
            for fn in ast.walk(ctx.tree):
                if not isinstance(fn, FUNC_NODES):
                    continue
                yield from self._check_function(ctx, fn, vocab)

    def _check_function(self, ctx: FileContext, fn: ast.AST,
                        vocab: Set[str]) -> Iterator[Violation]:
        for block in self._blocks(fn):
            arms = [stmt for stmt in block
                    if isinstance(stmt, ast.If)
                    and _compared_constants(stmt.test, vocab,
                                            positive_only=True)]
            if len(arms) < 2:
                continue
            last = arms[-1]
            if self._fail_closed_after(block, last):
                continue
            if self._raises(last.orelse):
                continue
            types = sorted({t for stmt in arms
                            for t in _compared_constants(
                                stmt.test, vocab, positive_only=True)})
            yield self.violation(
                ctx, fn,
                f"`{fn.name}` dispatches over frame types "
                f"({', '.join(types)}) but the chain falls through "
                f"without a raise — an unknown or misrouted frame is "
                f"silently dropped instead of failing closed; add a "
                f"trailing `raise` (see the coordinator's `_handle`)")
            return  # one finding per function is enough

    @staticmethod
    def _blocks(fn: ast.AST) -> Iterator[List[ast.AST]]:
        # Own statement lists only: a nested def is its own dispatch
        # unit and is visited separately by check_project.
        stack: List[ast.AST] = [fn]
        while stack:
            node = stack.pop()
            if isinstance(node, FUNC_NODES) and node is not fn:
                continue
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if isinstance(block, list) and block:
                    yield block
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _fail_closed_after(block: List[ast.AST],
                           last_arm: ast.AST) -> bool:
        idx = block.index(last_arm)
        for stmt in block[idx + 1:]:
            if isinstance(stmt, ast.Raise):
                return True
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
        # The last arm itself may raise on its final statement
        # (`if mtype == "BYE": raise _Eof(...)`) *and* be followed by
        # nothing — that still leaves the fall-through open.
        return False

    @staticmethod
    def _raises(orelse: List[ast.AST]) -> bool:
        for stmt in orelse:
            if isinstance(stmt, ast.Raise):
                return True
            if isinstance(stmt, ast.If):
                return DispatchFailClosed._raises(stmt.body) and \
                    DispatchFailClosed._raises(stmt.orelse)
        return False


class _TaintWalk:
    """Forward may-taint pass over one function, two fixpoint rounds."""

    def __init__(self, ctx: FileContext, fn: ast.AST):
        self.ctx = ctx
        self.fn = fn
        self.tainted: Set[str] = set()
        args = fn.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            if arg.arg in _MESSAGE_PARAMS:
                self.tainted.add(arg.arg)

    # -- expression classification ---------------------------------------
    def _is_source_call(self, node: ast.Call) -> bool:
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None)
        return name in {"recv_frame", "decode_body", "check_versions"}

    def _is_sanitizer_call(self, node: ast.Call) -> bool:
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None)
        if name is None:
            return False
        if name in _SANITIZER_NAMES:
            return True
        low = name.lower()
        return any(frag in low for frag in _SANITIZER_FRAGMENTS)

    def expr_tainted(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            if self._is_source_call(node):
                return True
            if self._is_sanitizer_call(node):
                return False
            # str(tainted), tainted.get("k"), os.path.basename(tainted):
            # transformation is not validation, so taint flows through
            # both arguments and the method receiver.
            if any(self.expr_tainted(arg) for arg in node.args):
                return True
            return (isinstance(node.func, ast.Attribute)
                    and self.expr_tainted(node.func.value))
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            return self.expr_tainted(node.value)
        if isinstance(node, ast.Subscript):
            return self.expr_tainted(node.value)
        if isinstance(node, ast.BinOp):
            return (self.expr_tainted(node.left)
                    or self.expr_tainted(node.right))
        if isinstance(node, ast.JoinedStr):
            return any(self.expr_tainted(v.value)
                       for v in node.values
                       if isinstance(v, ast.FormattedValue))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self.expr_tainted(e) for e in node.elts)
        if isinstance(node, ast.IfExp):
            return (self.expr_tainted(node.body)
                    or self.expr_tainted(node.orelse))
        return False

    # -- propagation -----------------------------------------------------
    def propagate(self) -> None:
        for _round in range(2):
            for node in own_body_nodes(self.fn):
                if isinstance(node, ast.Assign):
                    if self.expr_tainted(node.value):
                        for t in node.targets:
                            self._taint_target(t)
                elif isinstance(node, ast.AnnAssign):
                    if node.value is not None \
                            and self.expr_tainted(node.value):
                        self._taint_target(node.target)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if self.expr_tainted(node.iter):
                        self._taint_target(node.target)

    def _taint_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._taint_target(elt)


@register
class WireTaintToPath(Rule):
    id = "WIRE503"
    name = "wire-taint-to-path"
    summary = ("wire-derived values must flow through a validator "
               "before reaching a filesystem path sink")
    scope = "project"

    def check_project(self, files: Dict[str, FileContext],
                      index: Optional[ProjectIndex] = None
                      ) -> Iterator[Violation]:
        index = index or ProjectIndex(files)
        proto, _vocab = _message_vocab(index)
        if proto is None:
            return
        for ctx in index.sorted_contexts():
            if not _is_endpoint(index, ctx):
                continue
            for fn in ast.walk(ctx.tree):
                if not isinstance(fn, FUNC_NODES):
                    continue
                yield from self._check_function(ctx, fn)

    def _check_function(self, ctx: FileContext,
                        fn: ast.AST) -> Iterator[Violation]:
        walk = _TaintWalk(ctx, fn)
        if not walk.tainted and not any(
                isinstance(n, ast.Call) and walk._is_source_call(n)
                for n in own_body_nodes(fn)):
            return
        walk.propagate()
        for node in own_body_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_path_sink(ctx, node):
                continue
            for arg in node.args:
                if walk.expr_tainted(arg):
                    yield self.violation(
                        ctx, node,
                        f"wire-derived value reaches a filesystem "
                        f"path sink in `{fn.name}` without passing "
                        f"through a validator — a malicious peer "
                        f"controls this path (use the cache key check "
                        f"or an explicit validator before touching "
                        f"the filesystem)")
                    break

    @staticmethod
    def _is_path_sink(ctx: FileContext, node: ast.Call) -> bool:
        chain = ctx.resolved_call_chain(node.func)
        if chain in _PATH_SINKS:
            return True
        func = node.func
        return isinstance(func, ast.Name) and func.id in {"open", "Path"}


@register
class VersionGatedFieldRead(Rule):
    id = "WIRE504"
    name = "version-gated-field-read"
    summary = ("fields in protocol.VERSION_GATED_FIELDS may only be "
               "read by modules that gate on the protocol version")
    scope = "project"

    def check_project(self, files: Dict[str, FileContext],
                      index: Optional[ProjectIndex] = None
                      ) -> Iterator[Violation]:
        index = index or ProjectIndex(files)
        proto, _vocab = _message_vocab(index)
        if proto is None:
            return
        gated = self._gated_fields(proto)
        if not gated:
            return
        for ctx in index.sorted_contexts():
            if not _is_endpoint(index, ctx):
                continue
            if self._module_gates(ctx):
                continue
            for node in _sorted_by_pos(
                    [n for n in ast.walk(ctx.tree)
                     if self._gated_read(n, gated) is not None]):
                field = self._gated_read(node, gated)
                yield self.violation(
                    ctx, node,
                    f"reads version-gated field {field!r} (added in "
                    f"protocol v{gated[field]}) but this module never "
                    f"checks the protocol version — an older peer "
                    f"simply omits the field and the read misparses; "
                    f"call check_versions() or gate on "
                    f"PROTOCOL_VERSION first")

    @staticmethod
    def _gated_fields(proto: FileContext) -> Dict[str, object]:
        node = global_assign(proto, "VERSION_GATED_FIELDS")
        if node is None or not isinstance(node.value, ast.Dict):
            return {}
        out: Dict[str, object] = {}
        for key, value in zip(node.value.keys, node.value.values):
            if isinstance(key, ast.Constant) \
                    and isinstance(key.value, str):
                out[key.value] = (value.value
                                  if isinstance(value, ast.Constant)
                                  else "?")
        return out

    @staticmethod
    def _module_gates(ctx: FileContext) -> bool:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name) \
                    and node.id == "PROTOCOL_VERSION":
                return True
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr
                        if isinstance(func, ast.Attribute) else None)
                if name == "check_versions":
                    return True
        return False

    @staticmethod
    def _gated_read(node: ast.AST, gated: Dict[str, object]
                    ) -> Optional[str]:
        # message.get("field") / message["field"] reads
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in gated):
            return node.args[0].value
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Constant)
                and node.slice.value in gated
                and isinstance(node.slice.value, str)):
            return node.slice.value
        return None
