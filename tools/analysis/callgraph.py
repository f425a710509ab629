#!/usr/bin/env python3
"""Shared whole-program call-graph engine for the interprocedural lints.

corona-reach (tools/reach/) and corona-heat (tools/heat/) answer different
questions — "can this entry point block?" vs "does this hot path allocate or
copy?" — over the SAME artifact: a conservative call graph of src/.  This
module is that artifact's single home: the graph IR, the two frontends that
build it, the annotation/waiver plumbing, and the rationalized-baseline
gate.  The tools keep only their rules and their CLIs.

Two frontends produce the same Graph IR:

  textual   a dependency-free parser over the sources, sharing corona_lint's
            line machinery.  Virtual calls resolve by conservative
            name-based class-hierarchy analysis: a call to `x->flush()`
            targets EVERY known `flush` — an over-approximation that is
            exactly what makes `Runtime*`-dispatched code visible.  Lambda
            bodies attribute to their defining function; address-taken
            functions (`&f`) count as called from the taker.
  libclang  precise AST extraction over compile_commands.json via
            clang.cindex (CI installs the pinned libclang; locally the
            tools report and fall back to textual unless --require-libclang
            is given).  Leaf-pattern scanning stays textual in both
            frontends so the builtin models cannot drift between them.

Each client passes a CallgraphConfig: its waiver tag (`// reach: waive ...`
vs `// heat: waive ...`), its rule-name set, and its leaf models — named
tables of (label, regex[, unless-regex]) patterns whose per-function hits
land in Function.leaf_hits for the client's rules to interpret.

Annotations come from src/util/context.h and are shared by every client:
CORONA_BLOCKING / CORONA_NONBLOCKING / CORONA_LOOP_CONTEXT /
CORONA_HOT_PATH.  Under clang they are __attribute__((annotate(...))) and
the libclang frontend reads them off the AST; the textual frontend
recognizes the macro tokens.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "lint"))
from corona_lint import (  # noqa: E402
    CXX_EXTENSIONS,
    gather_files,
    logical_lines,
    src_relative,
)

__all__ = [
    "CXX_EXTENSIONS", "gather_files", "logical_lines", "src_relative",
    "ANNOTATION_TOKENS", "ANNOTATE_STRINGS", "CallgraphConfig",
    "Call", "Function", "Graph", "Finding",
    "build_graph_textual", "build_graph_libclang", "load_cindex",
    "annotated_entries", "load_baseline", "write_baseline",
]

# All execution-context annotations (src/util/context.h).  One superset map
# shared by every client: a tool simply ignores labels its rules do not use.
ANNOTATION_TOKENS = {
    "CORONA_BLOCKING": "blocking",
    "CORONA_NONBLOCKING": "nonblocking",
    "CORONA_LOOP_CONTEXT": "loop_context",
    "CORONA_HOT_PATH": "hot_path",
}
ANNOTATE_STRINGS = {
    "corona::blocking": "blocking",
    "corona::nonblocking": "nonblocking",
    "corona::loop_context": "loop_context",
    "corona::hot_path": "hot_path",
}


@dataclass(frozen=True)
class CallgraphConfig:
    """Per-tool engine parameters.

    tool        the waiver tag and message prefix ("reach", "heat"):
                waivers are spelled `// <tool>: waive <rule>[, <rule>] --
                reason`.
    rules       the tool's valid rule names (waiver parsing validates
                against these; `waive all` expands to them).
    leaf_models named pattern tables: model name -> list of
                (leaf_label, regex) or (leaf_label, regex, unless_regex)
                entries.  A body segment matching `regex` (and, when given,
                NOT matching `unless_regex`) records a
                (leaf_label, line, locked, waived) hit under
                Function.leaf_hits[model name].
    """
    tool: str
    rules: tuple
    leaf_models: dict

    def waive_re(self) -> re.Pattern:
        return re.compile(
            rf"{self.tool}:\s*waive\s+([a-z-]+(?:\s*,\s*[a-z-]+)*)")


def waivers_for(raw: str, cfg: CallgraphConfig) -> frozenset:
    m = cfg.waive_re().search(raw)
    if not m:
        return frozenset()
    rules = {r.strip() for r in m.group(1).split(",")}
    if "all" in rules:
        return frozenset(cfg.rules)
    return frozenset(r for r in rules if r in cfg.rules)


# ---------------------------------------------------------------------------
# Graph IR (shared by both frontends)
# ---------------------------------------------------------------------------

@dataclass
class Call:
    simple: str            # callee's unqualified name
    qualified: str | None  # "Class::name" when the source spells it
    line: int
    locked: str | None     # lock expression held at the site, else None
    waived: frozenset = frozenset()


@dataclass
class Function:
    qname: str
    simple: str
    path: str
    rel: str
    line: int
    annotations: set = field(default_factory=set)
    waived: set = field(default_factory=set)   # rules waived on the def
    requires_lock: str | None = None           # CORONA_REQUIRES(...) text
    calls: list = field(default_factory=list)
    # model name -> [(leaf, line, locked, waived)] direct pattern hits
    leaf_hits: dict = field(default_factory=dict)
    # Raw header statement text (through the opening '{'), for clients that
    # analyze signatures (parameter passing, return types).
    header: str = ""
    # Identifiers this function passes to std::move — the sanctioned
    # value+move ownership transfer pattern.
    moves: set = field(default_factory=set)

    def hits(self, model: str) -> list:
        return self.leaf_hits.get(model, [])


@dataclass
class Graph:
    functions: dict = field(default_factory=dict)   # qname -> Function
    by_simple: dict = field(default_factory=dict)   # simple -> [qname]
    # simple name -> {True, False}: which declarations are nodiscard.  A
    # name is tracked only if EVERY declaration agrees (textual frontend
    # cannot type receivers; mixed names defer to the compiler's own
    # -Wunused-result, which is type-precise).
    nodiscard_votes: dict = field(default_factory=dict)
    # (rel, line, enclosing qname, callee simple, waived)
    stmt_calls: list = field(default_factory=list)

    def add(self, fn: Function) -> Function:
        existing = self.functions.get(fn.qname)
        if existing is None:
            self.functions[fn.qname] = fn
            self.by_simple.setdefault(fn.simple, []).append(fn.qname)
            return fn
        # Redefinition (template specializations, inline defs seen twice):
        # merge annotations, keep the richer body.
        existing.annotations |= fn.annotations
        existing.waived |= fn.waived
        if fn.calls or fn.leaf_hits:
            existing.calls += fn.calls
            for model, hits in fn.leaf_hits.items():
                existing.leaf_hits.setdefault(model, []).extend(hits)
        existing.moves |= fn.moves
        if fn.header and not existing.header:
            existing.header = fn.header
        if fn.requires_lock and not existing.requires_lock:
            existing.requires_lock = fn.requires_lock
        return existing

    def annotate(self, qname: str, simple: str, annots: set,
                 waived: frozenset = frozenset()) -> None:
        fn = self.functions.get(qname)
        if fn is None:
            fn = self.add(Function(qname, simple, "", "", 0))
        fn.annotations |= annots
        fn.waived |= set(waived)

    def resolve(self, call: Call) -> list:
        if call.qualified and call.qualified.startswith("::"):
            # Explicit global scope: a free function, never a method.
            return [q for q in self.by_simple.get(call.simple, [])
                    if "::" not in q]
        if call.qualified and call.qualified in self.functions:
            return [call.qualified]
        return self.by_simple.get(call.simple, [])

    def tracked_nodiscard(self, simple: str) -> bool:
        votes = self.nodiscard_votes.get(simple)
        return votes is not None and votes == {True}


def annotated_entries(graph: Graph, label: str) -> set:
    """Entry set for `label`: annotated functions plus CHA name-widening
    (every override of an annotated virtual shares its simple name)."""
    entry_simples = {fn.simple for fn in graph.functions.values()
                     if label in fn.annotations}
    return {fn.qname for fn in graph.functions.values()
            if fn.simple in entry_simples}


# ---------------------------------------------------------------------------
# Textual frontend
# ---------------------------------------------------------------------------

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "assert",
    "do", "else", "new", "delete", "case", "throw", "alignof", "decltype",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "static_assert", "defined", "noexcept", "typeid", "alignas", "co_await",
    "co_return", "co_yield", "template", "typename", "using", "operator",
}

# Ubiquitous std member names.  An unqualified call to one of these is far
# more likely `std::atomic::load` or `MutexLock::unlock` than a corona
# function that happens to share the name, and name-based CHA would fan a
# single `x.load()` out to every `load` in the tree.  Edges to them are
# dropped; explicit qualification (`DiskCheckpointStore::load(...)`) still
# resolves.  Deliberately NOT listed: the domain verbs the rules exist for
# (flush, sync, write, append, recover, open, close, send, connect, wait).
STD_MEMBER_NAMES = {
    "lock", "unlock", "try_lock", "load", "store", "exchange",
    "notify_one", "notify_all", "size", "empty", "begin", "end", "cbegin",
    "cend", "rbegin", "rend", "clear", "reset", "release", "get", "swap",
    "find", "count", "contains", "at", "data", "c_str", "str", "front",
    "back", "top", "push", "pop", "push_back", "pop_back", "push_front",
    "pop_front", "emplace", "emplace_back", "insert", "resize", "reserve",
    "substr", "length", "value", "has_value", "value_or", "emplace_front",
    "min", "max", "abs", "move", "forward", "to_string", "tie", "join",
    "detach", "first", "second", "lower_bound", "upper_bound",
}

CLASS_OPEN_RE = re.compile(
    r"\b(?:class|struct)\s+(?:\[\[[^\]]*\]\]\s+)?"
    r"(?:CORONA_\w+(?:\([^)]*\))?\s+)*([A-Za-z_]\w*)[^;{=()]*\{"
)
NAME_CALL_RE = re.compile(
    r"(?P<prefix>(?:->|\.|::)\s*)?(?P<name>[A-Za-z_]\w*)\s*\("
)
QUAL_BEFORE_RE = re.compile(r"((?:[A-Za-z_]\w*::)+)$")
MAKE_RE = re.compile(
    r"\bmake_(?:unique|shared)\s*<\s*((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)"
    r"|\bnew\s+((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*[({]"
)
ADDR_RE = re.compile(r"&\s*((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\b(?!\s*\()")
FUNC_NAME_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*)\s*\("
)
LOCK_DECL_RE = re.compile(
    r"\b(?:corona::)?(MutexLock|RecursiveMutexLock)\b\s+([A-Za-z_]\w*)"
    r"\s*[({]\s*([^(){};]+?)\s*[)}]"
)
LOCK_METHOD_RE = re.compile(r"\b(\w+)\s*\.\s*(lock|unlock)\s*\(\s*\)")
REQUIRES_RE = re.compile(r"\bCORONA_REQUIRES\s*\(([^()]*)\)")
NODISCARD_RE = re.compile(r"\[\[\s*nodiscard\s*\]\]")
RESULT_TYPE_RE = re.compile(r"\b(?:corona::)?(?:Status\b|Result\s*<)")
STMT_CALL_RE = re.compile(
    r"^(?:\(\s*void\s*\)\s*)?(?P<recv>[\w:\]\[]+(?:\(\s*\))?(?:\.|->))?"
    r"(?P<q>(?:[A-Za-z_]\w*::)*)(?P<name>[A-Za-z_]\w*)\s*\(.*\)\s*;$"
)
MOVE_RE = re.compile(r"std\s*::\s*move\s*\(\s*([A-Za-z_]\w*)\s*\)")


def _parse_header(stmt: str):
    """Parses an accumulated statement ending at '{' as a function header.

    Returns (name, qualifier, annotations, nodiscard, requires) or None.
    The first identifier followed by '(' that is not a keyword is the
    function name (return types are never directly followed by '(').
    """
    annots = {label for token, label in ANNOTATION_TOKENS.items()
              if re.search(rf"\b{token}\b", stmt)}
    requires = None
    rm = REQUIRES_RE.search(stmt)
    if rm:
        requires = rm.group(1).strip()
    nodiscard = bool(NODISCARD_RE.search(stmt))
    head = stmt.split("(", 1)[0] if "(" in stmt else stmt
    if re.match(r"\s*(?:class|struct|enum|namespace|union)\b", head):
        return None
    for m in FUNC_NAME_RE.finditer(stmt):
        full = re.sub(r"\s+", "", m.group(1))
        name = full.rsplit("::", 1)[-1]
        if name in KEYWORDS or name.startswith("CORONA_"):
            continue
        if name == "requires_capability":
            continue
        qual = full[: -len(name)].rstrip(":") if "::" in full else ""
        return name, qual, annots, nodiscard, requires
    return None


class _FileScanner:
    """One pass over one file: function extents, annotations, calls,
    held-lock regions, direct leaf-pattern hits, unchecked-call
    statements."""

    def __init__(self, path: str, graph: Graph, cfg: CallgraphConfig):
        self.path = path
        self.rel = src_relative(path)
        self.graph = graph
        self.cfg = cfg
        self.depth = 0
        self.classes = []        # (name, body depth)
        self.stmt = ""           # statement text since last ; { }
        self.stmt_annots = set()
        self.fn = None           # current Function being filled
        self.fn_depth = 0        # depth of its body
        self.held = []           # (var or None, depth, expr)
        self.inactive = {}       # var -> (depth, expr)
        self.prev_waive = frozenset()
        self.stmt_waive = frozenset()  # waivers seen while self.stmt grew

    # -- helpers ------------------------------------------------------------

    def _qualify(self, name: str, qual: str) -> str:
        if qual:
            return f"{qual}::{name}"
        if self.classes:
            return f"{self.classes[-1][0]}::{name}"
        return name

    def _record_decl(self, stmt: str, waive: frozenset = frozenset()) -> None:
        """A declaration statement (ended with ';'): harvest annotations,
        waivers and nodiscard votes."""
        parsed = _parse_header(stmt)
        if not parsed:
            return
        name, qual, annots, nodiscard, requires = parsed
        if "=" in stmt.split("(", 1)[0]:
            return  # assignment/initialization, not a declaration
        qname = self._qualify(name, qual)
        if annots or waive:
            # Header declarations carry annotations AND waivers: headers are
            # the natural home for both (and, here, stay out of the mutation
            # pipeline's source hashes).
            self.graph.annotate(qname, name, annots, waive)
        fn = self.graph.functions.get(qname)
        if fn is not None and not fn.header:
            fn.header = stmt
        # Only lines that LOOK like declarations vote on nodiscard: a bare
        # call statement `foo();` must not count as a non-nodiscard decl.
        head = stmt.split("(", 1)[0].strip()
        toks = head.replace("::", " ").split()
        looks_like_decl = len(toks) >= 2 or nodiscard or \
            RESULT_TYPE_RE.search(stmt.split("(", 1)[0] or "")
        if looks_like_decl and not head.endswith((".", "->")):
            is_nd = nodiscard or bool(
                RESULT_TYPE_RE.search(stmt.split("(", 1)[0]))
            self.graph.nodiscard_votes.setdefault(name, set()).add(is_nd)
        if requires and qname in self.graph.functions:
            self.graph.functions[qname].requires_lock = requires

    def _open_function(self, stmt: str, lineno: int, waive: frozenset) -> bool:
        parsed = _parse_header(stmt)
        if not parsed:
            return False
        name, qual, annots, nodiscard, requires = parsed
        qname = self._qualify(name, qual)
        fn = Function(qname, name, self.path, self.rel, lineno,
                      annotations=set(annots), waived=set(waive),
                      requires_lock=requires, header=stmt)
        self.fn = self.graph.add(fn)
        self.fn.waived |= set(waive)
        if not self.fn.header:
            self.fn.header = stmt
        if annots:
            self.graph.annotate(qname, name, annots)
        if nodiscard:
            self.graph.nodiscard_votes.setdefault(name, set()).add(True)
        self.fn_depth = self.depth  # depth BEFORE the body '{' increments
        return True

    def _locked_expr(self) -> str | None:
        if self.fn is not None and self.fn.requires_lock:
            return self.fn.requires_lock
        if self.held:
            return self.held[-1][2]
        return None

    def _scan_body_segment(self, code: str, lineno: int,
                           waive: frozenset) -> None:
        """Call/leaf extraction for body text of the current function."""
        fn = self.fn
        locked = self._locked_expr()
        for model, entries in self.cfg.leaf_models.items():
            for entry in entries:
                leaf, rx = entry[0], entry[1]
                unless = entry[2] if len(entry) > 2 else None
                if unless and unless.search(code):
                    continue
                labels = set()
                for m in rx.finditer(code):
                    # A capturing group refines the leaf label with the
                    # matched operand (`copy-push(out)`), letting clients
                    # reason about WHAT was hit, not just that it was.
                    groups = [g for g in m.groups() if g]
                    label = f"{leaf}({groups[0]})" if groups else leaf
                    if label in labels:
                        continue
                    labels.add(label)
                    fn.leaf_hits.setdefault(model, []).append(
                        (label, lineno, locked, waive))
        for m in MOVE_RE.finditer(code):
            fn.moves.add(m.group(1))
        seen = set()
        for m in NAME_CALL_RE.finditer(code):
            name = m.group("name")
            if name in KEYWORDS or name.startswith("CORONA_"):
                continue
            qualified = None
            before = code[: m.start()]
            qm = QUAL_BEFORE_RE.search(before.rstrip())
            prefix = m.group("prefix") or ""
            if prefix.strip() == "::" or qm:
                chain = (qm.group(1) if qm else "") + name
                parts = [p for p in chain.split("::") if p]
                if parts and parts[0] == "std":
                    continue  # std:: calls are never graph edges
                if len(parts) >= 2:
                    qualified = "::".join(parts[-2:])
                elif prefix.strip() == "::":
                    qualified = f"::{name}"  # global scope: free fn only
            if qualified is None and name in STD_MEMBER_NAMES:
                continue
            if (name, qualified) in seen:
                continue
            seen.add((name, qualified))
            fn.calls.append(Call(name, qualified, lineno, locked, waive))
        for m in MAKE_RE.finditer(code):
            cls = (m.group(1) or m.group(2)).split("::")[-1]
            if cls not in KEYWORDS:
                fn.calls.append(Call(cls, f"{cls}::{cls}", lineno, locked,
                                     waive))
        for m in ADDR_RE.finditer(code):
            target = m.group(1).split("::")[-1]
            if target in self.graph.by_simple or True:
                # Address taken: conservatively a call from the taker.  Only
                # kept if it resolves to a known function at rule time.
                fn.calls.append(Call(target, None, lineno, locked, waive))

    def _scan_stmt_call(self, code: str, lineno: int,
                        waive: frozenset) -> None:
        stripped = code.strip()
        m = STMT_CALL_RE.match(stripped)
        if not m or stripped.startswith("(void)"):
            return
        if "=" in stripped.split("(", 1)[0]:
            return
        if re.match(r"^(?:if|for|while|switch|return|delete|throw)\b",
                    stripped):
            return
        name = m.group("name")
        if name in KEYWORDS or name.startswith("CORONA_"):
            return
        # Declarations (`void f();`) have type tokens before the name with
        # whitespace; the statement regex already excludes those because the
        # receiver group cannot contain spaces.
        enclosing = self.fn.qname if self.fn else f"<file:{self.rel}>"
        self.graph.stmt_calls.append(
            (self.rel or self.path, lineno, enclosing, name, waive))

    # -- the pass -----------------------------------------------------------

    def run(self, text: str) -> None:
        in_directive = False
        for lineno, raw, code in logical_lines(text):
            # Preprocessor directives (and their backslash continuations)
            # are not code: `#if __has_attribute(annotate)` must not mint a
            # function named __has_attribute.
            if in_directive or code.lstrip().startswith("#"):
                in_directive = raw.rstrip().endswith("\\")
                continue
            waive = waivers_for(raw, self.cfg) | self.prev_waive
            # A waiver carries over a whole comment block onto the next code
            # line (the rationale usually takes several comment lines).
            self.prev_waive = waive if not code.strip() else frozenset()

            if self.fn is not None and code.strip():
                self._scan_stmt_call(code, lineno, waive)

            opens = {m.end() - 1: m.group(1)
                     for m in CLASS_OPEN_RE.finditer(code)}
            # Lock events, processed positionally below.
            lock_events = []
            if self.fn is not None:
                for m in LOCK_DECL_RE.finditer(code):
                    lock_events.append((m.start(), "decl",
                                        (m.group(2), m.group(3))))
                for m in LOCK_METHOD_RE.finditer(code):
                    lock_events.append((m.start(), m.group(2),
                                        (m.group(1),)))
                lock_events.sort()
            ei = 0
            seg_start = 0

            for pos, ch in enumerate(code + "\n"):
                while (ei < len(lock_events)
                       and lock_events[ei][0] <= pos):
                    _, kind, args = lock_events[ei]
                    ei += 1
                    if kind == "decl":
                        var, expr = args
                        self.inactive.pop(var, None)
                        self.held.append((var, self.depth, expr.strip()))
                    elif kind == "unlock":
                        (var,) = args
                        for i, h in enumerate(self.held):
                            if h[0] == var:
                                self.inactive[var] = self.held.pop(i)
                                break
                    elif kind == "lock":
                        (var,) = args
                        h = self.inactive.pop(var, None)
                        if h is not None:
                            self.held.append((var, self.depth, h[2]))
                if ch in ";{}":
                    segment = code[seg_start:pos]
                    if self.fn is not None:
                        self._scan_body_segment(segment, lineno, waive)
                    # A waiver above a declaration or definition whose
                    # header wraps onto several lines covers all of them.
                    head_waive = waive | self.stmt_waive
                    if ch == ";":
                        if self.fn is None:
                            self._record_decl(self.stmt + segment,
                                              head_waive)
                        self.stmt = ""
                    elif ch == "{":
                        header = self.stmt + segment
                        if self.fn is None:
                            if not self._open_function(header, lineno,
                                                       head_waive):
                                pass
                        self.stmt = ""
                        self.depth += 1
                        if pos in opens:
                            self.classes.append((opens[pos], self.depth))
                    elif ch == "}":
                        if self.classes and self.classes[-1][1] == self.depth:
                            self.classes.pop()
                        self.depth -= 1
                        while self.held and self.held[-1][1] >= self.depth:
                            dead = self.held.pop()
                            if dead[0] is not None:
                                self.inactive.pop(dead[0], None)
                        self.inactive = {
                            v: h for v, h in self.inactive.items()
                            if h[1] < self.depth}
                        if self.fn is not None and self.depth <= self.fn_depth:
                            self.fn = None
                            self.held = []
                            self.inactive = {}
                        self.stmt = ""
                    if not self.stmt:
                        self.stmt_waive = frozenset()
                    seg_start = pos + 1
            tail = code[seg_start:]
            if tail.strip():
                if self.fn is not None:
                    self._scan_body_segment(tail, lineno, waive)
                self.stmt += tail + " "
                self.stmt_waive |= waive


def build_graph_textual(files: list, cfg: CallgraphConfig) -> Graph:
    graph = Graph()
    for path in sorted(files):
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"{cfg.tool}: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)
        _FileScanner(path, graph, cfg).run(text)
    return graph


# ---------------------------------------------------------------------------
# libclang frontend
# ---------------------------------------------------------------------------

def load_cindex():
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    if not cindex.Config.loaded:
        for lib in (os.environ.get("CORONA_LIBCLANG"),
                    "libclang-14.so.1", "libclang.so.14", "libclang.so"):
            if not lib:
                continue
            try:
                cindex.Config.set_library_file(lib)
                cindex.Index.create()
                return cindex
            except Exception:  # noqa: BLE001 - probe the next candidate
                cindex.Config.loaded = False
                continue
        try:
            cindex.Index.create()
        except Exception:  # noqa: BLE001
            return None
    return cindex


def build_graph_libclang(db_dir: str, files: list,
                         cfg: CallgraphConfig) -> Graph | None:
    """AST-precise graph extraction.  Returns None if libclang is missing."""
    cindex = load_cindex()
    if cindex is None:
        return None
    CursorKind = cindex.CursorKind
    try:
        db = cindex.CompilationDatabase.fromDirectory(db_dir)
    except cindex.CompilationDatabaseError:
        print(f"{cfg.tool}: no compilation database in {db_dir}",
              file=sys.stderr)
        return None
    index = cindex.Index.create()
    graph = Graph()
    wanted = {os.path.abspath(f) for f in files}
    waiver_map = _collect_waivers(files, cfg)
    parsed_headers = set()

    def qname_of(cur) -> tuple:
        name = cur.spelling or "<anon>"
        parent = cur.semantic_parent
        if parent is not None and parent.kind in (
                CursorKind.CLASS_DECL, CursorKind.STRUCT_DECL,
                CursorKind.CLASS_TEMPLATE):
            return f"{parent.spelling}::{name}", name
        return name, name

    def annots_of(cur) -> set:
        out = set()
        for ch in cur.get_children():
            if ch.kind == CursorKind.ANNOTATE_ATTR:
                label = ANNOTATE_STRINGS.get(ch.spelling)
                if label:
                    out.add(label)
        return out

    def is_nodiscard(cur) -> bool:
        if any(ch.kind == CursorKind.WARN_UNUSED_RESULT_ATTR
               for ch in cur.get_children()):
            return True
        rt = cur.result_type.spelling if cur.result_type else ""
        return bool(RESULT_TYPE_RE.search(rt))

    def _textual_body_leaves(fn: Function, wmap) -> None:
        try:
            with open(fn.path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            return
        # Delegate to the textual scanner for this one file if we have not
        # already; cheap and keeps leaf semantics in one place.
        if getattr(graph, "_leafscanned", None) is None:
            graph._leafscanned = set()
        if fn.path in graph._leafscanned:
            return
        graph._leafscanned.add(fn.path)
        shadow = Graph()
        _FileScanner(fn.path, shadow, cfg).run(text)
        for q, sfn in shadow.functions.items():
            target = graph.functions.get(q)
            if target is not None:
                for model, hits in sfn.leaf_hits.items():
                    target.leaf_hits.setdefault(model, []).extend(hits)
                target.moves |= sfn.moves
                if sfn.header and not target.header:
                    target.header = sfn.header
                target.requires_lock = (target.requires_lock
                                        or sfn.requires_lock)
                if not target.calls:
                    target.calls += sfn.calls
        graph.stmt_calls.extend(shadow.stmt_calls)

    def handle_function(cur) -> None:
        loc_file = cur.location.file
        path = loc_file.name if loc_file else ""
        key = (path, cur.location.line)
        qname, simple = qname_of(cur)
        annots = annots_of(cur)
        if not cur.is_definition():
            if annots:
                graph.annotate(qname, simple, annots)
            graph.nodiscard_votes.setdefault(simple, set()).add(
                is_nodiscard(cur))
            return
        if key in parsed_headers:
            return
        parsed_headers.add(key)
        rel = src_relative(path)
        fn = graph.add(Function(qname, simple, path, rel,
                                cur.location.line, annotations=annots))
        fw = waiver_map.get((path, cur.location.line), frozenset()) | \
            waiver_map.get((path, cur.location.line - 1), frozenset())
        fn.waived |= set(fw)
        graph.nodiscard_votes.setdefault(simple, set()).add(
            is_nodiscard(cur))
        lock_lines = []  # lines where a MutexLock scope opens

        def walk(node):
            for ch in node.get_children():
                line = ch.location.line
                cw = waiver_map.get((path, line), frozenset()) | \
                    waiver_map.get((path, line - 1), frozenset())
                locked = "lock" if any(
                    ln <= line for ln in lock_lines) else None
                if ch.kind == CursorKind.VAR_DECL and \
                        "MutexLock" in (ch.type.spelling or ""):
                    lock_lines.append(line)
                elif ch.kind == CursorKind.CALL_EXPR:
                    ref = ch.referenced
                    if ref is not None and ref.spelling:
                        cq, cs = qname_of(ref)
                        virtual = getattr(ref, "is_virtual_method",
                                          lambda: False)()
                        fn.calls.append(Call(
                            cs, None if virtual else cq, line, locked, cw))
                walk(ch)

        walk(cur)
        # Builtin leaves + statement calls come from the shared textual
        # machinery over the definition's source extent (identical model,
        # and robust against libclang token quirks).
        _textual_body_leaves(fn, waiver_map)

    for path in sorted(wanted):
        if os.path.splitext(path)[1] not in {".cc", ".cpp", ".cxx"}:
            continue
        cmds = db.getCompileCommands(path)
        args = []
        if cmds:
            args = [a for a in list(cmds[0].arguments)[1:]
                    if a not in ("-c", "-o", path)
                    and not a.endswith(".o")]
        try:
            tu = index.parse(path, args=args)
        except cindex.TranslationUnitLoadError as e:
            print(f"{cfg.tool}: libclang failed on {path}: {e}",
                  file=sys.stderr)
            continue
        for cur in tu.cursor.walk_preorder():
            if cur.kind in (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                            CursorKind.CONSTRUCTOR, CursorKind.DESTRUCTOR):
                f = cur.location.file
                if f and (os.path.abspath(f.name) in wanted):
                    handle_function(cur)
    return graph


def _collect_waivers(files: list, cfg: CallgraphConfig) -> dict:
    wmap = {}
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                for lineno, raw in enumerate(f, start=1):
                    w = waivers_for(raw, cfg)
                    if w:
                        wmap[(path, lineno)] = w
        except OSError:
            continue
    return wmap


# ---------------------------------------------------------------------------
# Findings + rationalized baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    rule: str
    subject: str   # entry / locked function / calling function
    leaf: str      # blocking function qname, builtin leaf, or callee name
    path: str
    line: int
    via: str

    @property
    def key(self) -> tuple:
        return (self.rule, self.subject, self.leaf)


def load_baseline(path: str, tool: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except (OSError, ValueError) as e:
        print(f"{tool}: cannot read baseline {path}: {e}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for entry in payload.get("findings", []):
        key = (entry.get("rule", ""), entry.get("subject", ""),
               entry.get("leaf", ""))
        out[key] = entry.get("rationale", "")
    return out


def write_baseline(path: str, findings: list, old: dict, tool: str,
                   comment: str) -> None:
    payload = {
        "comment": comment,
        "findings": [
            {"rule": f.rule, "subject": f.subject, "leaf": f.leaf,
             "rationale": old.get(f.key, "")}
            for f in findings
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"{tool}: wrote {len(findings)} finding(s) to {path}",
          file=sys.stderr)
