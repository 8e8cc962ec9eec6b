"""Performance lint: PERF rules on sim-hot paths, profile-guided ranking.

The determinism packs answer "is this code *correct* under the sim
contract"; this pack answers "is this code *fast enough to be on the
per-event path*".  It runs over the PR-3 project call graph in three
steps:

1. **Hot-path classification** (:class:`HotPathIndex`): the functions
   that execute once per kernel event -- the event loop itself
   (``Simulator.run``/``step``, ``Event._resolve``, ``Process._step``),
   every registered sim-process generator, the fleet barrier exchange
   (``PartitionRuntime.advance``, ``V2VBus.deliver``) and the per-event
   accounting fan-out (metric registry, streaming quantiles, trace
   hashing) -- plus everything reachable from them through resolved call
   edges.  Each hot function carries its BFS depth from the nearest
   root, the fallback ranking signal.

2. **PERF rules** (:class:`PerfAnalyzer`), which fire *only* inside
   sim-hot functions and honor the same ``# vdaplint:`` pragmas as every
   other pack:

   * **PERF001** -- object/list/dict construction inside a per-event
     loop body (a fresh allocation every iteration of a loop that runs
     per event);
   * **PERF002** -- a hoistable invariant recomputed in a loop: the same
     deep attribute chain loaded repeatedly, or ``len(x)`` recomputed
     while ``x`` never changes;
   * **PERF003** -- quadratic patterns: ``list.insert(0, ...)``,
     membership tests against a list inside a loop, ``+=`` string
     accumulation;
   * **PERF004** -- a per-item python loop doing pure numeric work in
     ``repro.net`` / ``repro.nn`` / ``repro.hw`` (vectorization
     candidate: batch it into an array operation);
   * **PERF005** -- logging or string formatting on a hot path that is
     evaluated unconditionally on every event.

3. **Profile-guided ranking** (:func:`load_profile` +
   :func:`rank_findings`): ``--perf --profile run.pstats`` joins each
   finding to the measured cumulative time of its enclosing function, so
   the report is ordered by expected payoff; a ``BENCH_fleet.json``
   supplies throughput context while the ordering falls back to
   depth-from-kernel.  Without a profile the depth fallback alone ranks.
"""

from __future__ import annotations

import ast
import json
import marshal
import os
import pstats
from typing import Iterable, Optional, Sequence

from .callgraph import FunctionInfo, ProjectGraph, build_graph
from .engine import Finding, Pragmas, Rule

__all__ = [
    "HOT_ROOT_SUFFIXES",
    "PERF_RULE_CLASSES",
    "HotPathIndex",
    "PerfAnalyzer",
    "ProfileData",
    "load_profile",
    "perf_rules",
    "perf_rules_by_id",
    "rank_findings",
]

#: Qualname suffixes that seed the sim-hot set: the kernel event loop,
#: the fleet barrier exchange, and the per-event accounting fan-out.
#: Sim-process generators (``graph.process_roots``) are added dynamically.
HOT_ROOT_SUFFIXES = (
    # kernel event loop
    "Simulator.run",
    "Simulator.step",
    "Simulator.run_to_barrier",
    "Event._resolve",
    "Process._step",
    # fleet barrier exchange (the per-event side of a round)
    "PartitionRuntime.advance",
    "V2VBus.deliver",
    # per-event accounting: metrics, quantiles, trace hashing
    "Collector.count",
    "Collector.gauge",
    "Collector.observe",
    "MetricRegistry._get_or_create",
    "Histogram.observe",
    "DeterminismSanitizer._record",
    "VehicleTraceHash.record_send",
    "VehicleTraceHash.record_receive",
    "VehicleTraceHash.record_state",
)

#: Subsystems whose per-item numeric loops are vectorization candidates.
VECTOR_SUBSYSTEMS = frozenset({"net", "nn", "hw"})

#: Builtins that vectorize trivially (allowed inside a PERF004 loop).
NUMERIC_BUILTINS = frozenset(
    {"abs", "divmod", "float", "int", "len", "max", "min", "pow", "round", "sum"}
)

#: Attribute / name flags that mark an ``if`` body as an intentional
#: formatting guard (``if obs.enabled:``, ``if self.debug:``).
GUARD_FLAGS = frozenset({"enabled", "debug", "verbose"})

#: Per-sample RNG draw methods (``rng.random()`` etc. batch into arrays).
RNG_METHODS = frozenset(
    {
        "betavariate", "choice", "expovariate", "gauss", "normalvariate",
        "paretovariate", "randint", "random", "randrange", "triangular",
        "uniform", "vonmisesvariate",
    }
)

#: ``logger.debug(...)``-style method names treated as logging calls.
LOG_METHODS = frozenset(
    {"critical", "debug", "error", "exception", "info", "log", "warning"}
)

#: Receiver names that mark a call as logging (``log.info``, ``logger.x``).
LOG_RECEIVERS = frozenset({"log", "logger", "logging", "LOG", "LOGGER"})

#: Depth assigned to findings in functions outside the hot set (ranking
#: fallback only; the rules themselves never fire outside it).
COLD_DEPTH = 1_000_000


class HotLoopAllocRule(Rule):
    """PERF001: fresh allocation on every iteration of a per-event loop."""

    id = "PERF001"
    name = "hot-loop-allocation"
    description = (
        "object/list/dict construction inside a loop body on a sim-hot "
        "path; hoist or reuse the allocation (perf; needs --perf)"
    )
    version = 1


class HotLoopInvariantRule(Rule):
    """PERF002: hoistable invariant recomputed inside a loop."""

    id = "PERF002"
    name = "hot-loop-invariant"
    description = (
        "a deep attribute chain or len() is recomputed every iteration of "
        "a sim-hot loop although its value never changes; hoist it to a "
        "local (perf; needs --perf)"
    )
    version = 1


class QuadraticPatternRule(Rule):
    """PERF003: accidentally-quadratic patterns on a hot path."""

    id = "PERF003"
    name = "hot-quadratic-pattern"
    description = (
        "list.insert(0, ...), list membership in a loop, or string += "
        "accumulation on a sim-hot path is O(n^2); use a deque, a set, or "
        "''.join (perf; needs --perf)"
    )
    version = 1


class VectorizeCandidateRule(Rule):
    """PERF004: per-item python loop over array-able numeric work."""

    id = "PERF004"
    name = "vectorization-candidate"
    description = (
        "a per-item python loop doing pure numeric work in repro.net/"
        "repro.nn/repro.hw; batch it into an array operation "
        "(perf; needs --perf)"
    )
    version = 1


class HotFormatRule(Rule):
    """PERF005: unconditional formatting / logging on a hot path.

    Silent on the idioms the rule itself recommends: formatting under an
    ``if <flag>.enabled:``-style guard, inside an exception constructor
    (diagnostic text for an error path), or in a pure formatter function
    whose whole body is a single ``return`` (the format *is* the product;
    precomputation belongs at the call sites).
    """

    id = "PERF005"
    name = "hot-path-formatting"
    description = (
        "logging or f-string/format work on a sim-hot path is evaluated "
        "unconditionally on every event; guard it or precompute "
        "(perf; needs --perf)"
    )
    version = 2


PERF_RULE_CLASSES = [
    HotLoopAllocRule,
    HotLoopInvariantRule,
    QuadraticPatternRule,
    VectorizeCandidateRule,
    HotFormatRule,
]


def perf_rules() -> list[Rule]:
    """Fresh instances of the performance rule pack."""
    return [cls() for cls in PERF_RULE_CLASSES]


def perf_rules_by_id() -> dict[str, Rule]:
    """The performance rule pack keyed by rule id."""
    return {rule.id: rule for rule in perf_rules()}


def module_subsystem(module: str) -> Optional[str]:
    """``repro.net.channel`` -> ``net``; non-repro modules -> ``None``."""
    parts = module.split(".")
    for i, part in enumerate(parts[:-1]):
        if part == "repro":
            return parts[i + 1]
    return None


def _scan(node: ast.AST) -> Iterable[ast.AST]:
    """Yield ``node``'s subtree, not descending into nested defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def _dotted(node: ast.AST) -> Optional[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class HotPathIndex:
    """Which functions run per kernel event, and how far from the loop.

    ``hot`` is the transitive closure of resolved call edges from the
    roots; ``depth`` maps each hot function to its BFS distance from the
    nearest root (0 = it *is* a per-event entry point), the ranking
    signal used when no profile is supplied.
    """

    def __init__(self, graph: ProjectGraph,
                 extra_roots: Iterable[str] = ()):
        self.graph = graph
        roots: set[str] = set()
        for qual in graph.functions:
            if qual.endswith(HOT_ROOT_SUFFIXES):
                roots.add(qual)
        roots.update(q for q in graph.process_roots if q in graph.functions)
        roots.update(q for q in extra_roots if q in graph.functions)
        self.roots = roots
        self.depth: dict[str, int] = {}
        frontier = sorted(roots)
        level = 0
        while frontier:
            nxt: list[str] = []
            for qual in frontier:
                if qual in self.depth:
                    continue
                self.depth[qual] = level
                for site in graph.calls.get(qual, ()):
                    if site.callee and site.callee not in self.depth:
                        nxt.append(site.callee)
            frontier = sorted(set(nxt) - set(self.depth))
            level += 1
        self.hot = set(self.depth)

    def is_hot(self, qualname: str) -> bool:
        return qualname in self.hot

    def depth_of(self, qualname: str) -> int:
        """BFS depth from the nearest root (COLD_DEPTH when not hot)."""
        return self.depth.get(qualname, COLD_DEPTH)

    def to_debug_dict(self) -> dict:
        """JSON-friendly dump: every hot function with its depth."""
        return {qual: self.depth[qual] for qual in sorted(self.depth)}


class ProfileData:
    """Measured weights for ranking: per-function cumtime, or throughput.

    ``kind`` is ``"pstats"`` (per-function cumulative seconds keyed by
    ``(file basename, function name)``) or ``"bench"`` (a
    ``BENCH_fleet.json`` document: whole-run throughput context, no
    per-function data -- ranking falls back to depth-from-kernel).
    """

    def __init__(self, kind: str, weights: dict[tuple[str, str], float],
                 context: Optional[dict] = None):
        self.kind = kind
        self.weights = weights
        self.context = context or {}

    def weight_for(self, info: FunctionInfo) -> Optional[float]:
        """Measured cumulative seconds for ``info``, if profiled."""
        return self.weights.get((os.path.basename(info.path), info.name))


def load_profile(path: str) -> ProfileData:
    """Load a ranking profile: a cProfile pstats dump or BENCH_fleet.json.

    Raises ``ValueError`` with a usage-friendly message for files that
    are neither.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except (UnicodeDecodeError, ValueError):
        document = None
    except OSError as err:
        raise ValueError(f"cannot read profile {path}: {err}") from err
    if isinstance(document, dict) and "rows" in document:
        rates = [
            row["events_per_s"] for row in document["rows"]
            if isinstance(row, dict) and "events_per_s" in row
        ]
        context = {"bench": document.get("name", os.path.basename(path))}
        if rates:
            context["events_per_s"] = max(rates)
        return ProfileData("bench", {}, context)
    if document is not None:
        raise ValueError(
            f"profile {path} is JSON but not a bench report (no 'rows' key)"
        )
    try:
        stats = pstats.Stats(path)
    except (OSError, ValueError, TypeError, EOFError) as err:
        raise ValueError(
            f"profile {path} is neither a bench JSON nor a pstats dump: {err}"
        ) from err
    weights: dict[tuple[str, str], float] = {}
    for (filename, _lineno, funcname), row in stats.stats.items():
        cumtime = float(row[3])
        key = (os.path.basename(filename), funcname)
        if cumtime > weights.get(key, 0.0):
            weights[key] = cumtime
    return ProfileData("pstats", weights)


def write_synthetic_pstats(path: str,
                           entries: dict[tuple[str, int, str], float]) -> None:
    """Write a minimal, deterministic pstats file from explicit cumtimes.

    ``entries`` maps ``(filename, lineno, funcname)`` to cumulative
    seconds.  Used by tests (and reproducible demos) to exercise the
    profile-ingestion path without timing anything.
    """
    table = {
        key: (1, 1, cumtime, cumtime, {})
        for key, cumtime in sorted(entries.items())
    }
    with open(path, "wb") as fh:
        marshal.dump(table, fh)


def rank_findings(findings: Sequence[Finding],
                  owners: dict[tuple[str, int, str], str],
                  hot: HotPathIndex,
                  profile: Optional[ProfileData] = None) -> list[dict]:
    """Order PERF/MP findings by expected payoff.

    With a pstats profile the score is the enclosing function's measured
    cumulative seconds; otherwise (no profile, or a bench profile, or an
    unprofiled function) it falls back to ``1 / (1 + depth-from-kernel)``.
    The sort key is ``(-score, path, line, rule)`` -- fully deterministic,
    so the same inputs always produce byte-identical reports.
    """
    entries = []
    for finding in findings:
        qual = owners.get((finding.path, finding.line, finding.rule), "")
        info = hot.graph.functions.get(qual)
        weight = None
        if profile is not None and info is not None:
            weight = profile.weight_for(info)
        if weight is not None:
            score, source = weight, "profile"
        else:
            score, source = 1.0 / (1.0 + hot.depth_of(qual)), "depth"
        entries.append(
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "function": qual,
                "score": round(score, 6),
                "source": source,
            }
        )
    entries.sort(key=lambda e: (-e["score"], e["path"], e["line"], e["rule"]))
    for rank, entry in enumerate(entries, start=1):
        entry["rank"] = rank
    return entries


class PerfAnalyzer:
    """Runs the PERF rule pack over the sim-hot slice of a project graph."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None):
        selected = list(rules) if rules is not None else perf_rules()
        self.rules = {rule.id: rule for rule in selected}
        self.graph: Optional[ProjectGraph] = None
        self.hot: Optional[HotPathIndex] = None
        #: ``(path, line, rule)`` -> enclosing function qualname, for ranking.
        self.owners: dict[tuple[str, int, str], str] = {}

    # -- entry points ------------------------------------------------------

    def analyze_paths(self, paths: Iterable[str]) -> list[Finding]:
        return self.analyze_graph(build_graph(paths))

    def analyze_graph(self, graph: ProjectGraph,
                      hot: Optional[HotPathIndex] = None) -> list[Finding]:
        self.graph = graph
        self.hot = hot if hot is not None else HotPathIndex(graph)
        self.owners = {}
        self._sites = {}
        for caller in graph.calls:
            for site in graph.calls[caller]:
                if site.node is not None:
                    self._sites[id(site.node)] = site
        self._leaf_memo: dict[str, bool] = {}
        findings: list[Finding] = []
        seen: set[tuple[str, int, str]] = set()
        for qual in sorted(self.hot.hot):
            info = graph.functions.get(qual)
            if info is None:
                continue
            for rule_id, line, col, message in self._check_function(info):
                key = (info.path, line, rule_id)
                if key in seen:
                    continue
                seen.add(key)
                self.owners[key] = qual
                findings.append(self._finding(rule_id, info.path, line, col, message))
        return sorted(self._apply_pragmas(findings))

    # -- per-function checks -----------------------------------------------

    def _check_function(self, info: FunctionInfo):
        node = info.node
        cold = self._cold_nodes(node)
        emitted = self._emitted_nodes(node)
        loops = [
            n for n in _scan(node) if isinstance(n, (ast.For, ast.While))
        ]
        acc_types, list_locals = self._accumulator_types(node)
        out = []
        for loop in loops:
            body = [n for n in self._loop_nodes(loop) if id(n) not in cold]
            if "PERF001" in self.rules:
                out.extend(self._check_alloc(loop, body, emitted, info))
            if "PERF002" in self.rules:
                out.extend(self._check_invariants(body))
            if "PERF003" in self.rules:
                out.extend(self._check_quadratic(body, acc_types, list_locals))
            if "PERF004" in self.rules:
                out.extend(self._check_vectorize(loop, body, info))
        if "PERF005" in self.rules:
            out.extend(self._check_formatting(node, cold, info))
        return out

    @staticmethod
    def _cold_nodes(func_node: ast.AST) -> set[int]:
        """Error-path subtrees: raise/assert/except bodies never run hot."""
        cold: set[int] = set()
        for n in _scan(func_node):
            if isinstance(n, (ast.Raise, ast.Assert, ast.ExceptHandler)):
                for sub in ast.walk(n):
                    cold.add(id(sub))
        return cold

    @staticmethod
    def _emitted_nodes(func_node: ast.AST) -> set[int]:
        """Subtrees under return/yield values: the allocation *is* the result."""
        emitted: set[int] = set()
        for n in _scan(func_node):
            if isinstance(n, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(n, "value", None)
                if value is not None:
                    for sub in ast.walk(value):
                        emitted.add(id(sub))
        return emitted

    @staticmethod
    def _loop_nodes(loop: ast.AST) -> list[ast.AST]:
        """Nodes evaluated on *every iteration*: the body (+ While test)."""
        roots: list[ast.AST] = list(loop.body)
        if isinstance(loop, ast.While):
            roots.append(loop.test)
        out: list[ast.AST] = []
        stack = roots[:]
        while stack:
            current = stack.pop()
            if isinstance(
                current,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
            ):
                continue
            out.append(current)
            stack.extend(ast.iter_child_nodes(current))
        return out

    def _accumulator_types(self, func_node: ast.AST):
        """Map local names to 'str'/'list' from their first simple binding."""
        acc: dict[str, str] = {}
        list_locals: set[str] = set()
        for n in _scan(func_node):
            if not isinstance(n, ast.Assign) or len(n.targets) != 1:
                continue
            target = n.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = n.value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                acc.setdefault(target.id, "str")
            elif isinstance(value, (ast.List, ast.ListComp)):
                acc.setdefault(target.id, "list")
                list_locals.add(target.id)
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("list", "sorted")
            ):
                acc.setdefault(target.id, "list")
                list_locals.add(target.id)
        return acc, list_locals

    # -- PERF001 -----------------------------------------------------------

    def _check_alloc(self, loop, body, emitted, info: FunctionInfo):
        out = []
        rule = "PERF001"
        for n in body:
            if id(n) in emitted:
                continue
            if isinstance(n, (ast.ListComp, ast.SetComp, ast.DictComp)):
                out.append((rule, n.lineno, n.col_offset,
                            "comprehension builds a fresh container every "
                            f"iteration of a sim-hot loop in `{info.qualname}`; "
                            "hoist it or fold it into the loop"))
            elif isinstance(n, (ast.List, ast.Set)) and n.elts:
                kind = "list" if isinstance(n, ast.List) else "set"
                out.append((rule, n.lineno, n.col_offset,
                            f"{kind} literal allocated every iteration of a "
                            f"sim-hot loop in `{info.qualname}`; hoist or reuse"))
            elif isinstance(n, ast.Dict) and n.keys:
                out.append((rule, n.lineno, n.col_offset,
                            "dict literal allocated every iteration of a "
                            f"sim-hot loop in `{info.qualname}`; hoist or reuse"))
            elif isinstance(n, ast.Call):
                site = self._sites.get(id(n))
                if site is None:
                    continue
                if site.external in ("list", "dict", "set", "tuple"):
                    out.append((rule, n.lineno, n.col_offset,
                                f"{site.external}() allocated every iteration "
                                f"of a sim-hot loop in `{info.qualname}`; "
                                "hoist or reuse"))
                elif site.callee is not None:
                    cls = self._constructed_class(site.callee)
                    if cls is not None:
                        out.append((rule, n.lineno, n.col_offset,
                                    f"`{cls}` constructed every iteration of a "
                                    f"sim-hot loop in `{info.qualname}`; hoist, "
                                    "pool, or batch the construction"))
        return out

    def _constructed_class(self, callee: str) -> Optional[str]:
        if callee in self.graph.classes:
            return callee
        if callee.endswith(".__init__"):
            cls = callee[: -len(".__init__")]
            if cls in self.graph.classes:
                return cls
        return None

    # -- PERF002 -----------------------------------------------------------

    def _check_invariants(self, body):
        assigned: set[str] = set()
        mutated: set[str] = set()
        chains: dict[str, list[int]] = {}
        len_calls: dict[str, list[int]] = {}
        for n in body:
            if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            assigned.add(sub.id)
            elif isinstance(n, ast.For):
                for sub in ast.walk(n.target):
                    if isinstance(sub, ast.Name):
                        assigned.add(sub.id)
            if isinstance(n, ast.Call):
                func = n.func
                if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name
                ):
                    mutated.add(func.value.id)
                if (
                    isinstance(func, ast.Name)
                    and func.id == "len"
                    and len(n.args) == 1
                    and isinstance(n.args[0], ast.Name)
                ):
                    len_calls.setdefault(n.args[0].id, []).append(n.lineno)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                dotted = _dotted(n)
                if dotted is not None and dotted.count(".") >= 2:
                    chains.setdefault(dotted, []).append(n.lineno)
        out = []
        rule = "PERF002"
        for dotted in sorted(chains):
            lines = chains[dotted]
            root = dotted.split(".", 1)[0]
            if len(lines) >= 2 and root not in assigned:
                out.append((rule, min(lines), 0,
                            f"attribute chain `{dotted}` loaded {len(lines)}x "
                            "inside a sim-hot loop; hoist it to a local"))
        for name in sorted(len_calls):
            lines = len_calls[name]
            if len(lines) >= 2 and name not in assigned and name not in mutated:
                out.append((rule, min(lines), 0,
                            f"len({name}) recomputed {len(lines)}x inside a "
                            f"sim-hot loop while `{name}` never changes; "
                            "hoist it to a local"))
        return out

    # -- PERF003 -----------------------------------------------------------

    def _check_quadratic(self, body, acc_types, list_locals):
        out = []
        rule = "PERF003"
        for n in body:
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "insert"
                and n.args
                and isinstance(n.args[0], ast.Constant)
                and n.args[0].value == 0
            ):
                out.append((rule, n.lineno, n.col_offset,
                            "list.insert(0, ...) in a sim-hot loop is O(n) "
                            "per call; append + reverse once, or use a deque"))
            elif isinstance(n, ast.Compare):
                for op, comparator in zip(n.ops, n.comparators):
                    if not isinstance(op, (ast.In, ast.NotIn)):
                        continue
                    if isinstance(comparator, ast.List):
                        out.append((rule, n.lineno, n.col_offset,
                                    "membership test against a list literal "
                                    "in a sim-hot loop; use a set (or a "
                                    "frozenset constant)"))
                    elif (
                        isinstance(comparator, ast.Name)
                        and comparator.id in list_locals
                    ):
                        out.append((rule, n.lineno, n.col_offset,
                                    f"membership test against list "
                                    f"`{comparator.id}` in a sim-hot loop is "
                                    "O(n*m); use a set"))
            elif (
                isinstance(n, ast.AugAssign)
                and isinstance(n.op, ast.Add)
                and isinstance(n.target, ast.Name)
            ):
                kind = acc_types.get(n.target.id)
                if kind == "str":
                    out.append((rule, n.lineno, n.col_offset,
                                f"string accumulation `{n.target.id} += ...` "
                                "in a sim-hot loop is quadratic; collect "
                                "parts and ''.join once"))
                elif kind == "list" and isinstance(n.value, ast.List):
                    out.append((rule, n.lineno, n.col_offset,
                                f"`{n.target.id} += [...]` allocates a temp "
                                "list every iteration; use .append(...)"))
        return out

    # -- PERF004 -----------------------------------------------------------

    def _check_vectorize(self, loop, body, info: FunctionInfo):
        if not isinstance(loop, ast.For):
            return []
        subsystem = module_subsystem(info.module)
        if subsystem is not None and subsystem not in VECTOR_SUBSYSTEMS:
            return []
        has_numeric = False
        has_batchable_call = False
        for n in body:
            if isinstance(
                n,
                (ast.For, ast.While, ast.Yield, ast.YieldFrom, ast.Try,
                 ast.With, ast.Raise, ast.Assert, ast.Return, ast.Await),
            ):
                return []
            if isinstance(n, ast.Call):
                if not self._call_vectorizable(n):
                    return []
                if self._call_batch_trigger(n):
                    has_batchable_call = True
            if isinstance(n, (ast.BinOp, ast.AugAssign)):
                has_numeric = True
        # Plain python accumulation loops are everywhere; only per-item
        # rng/math/numeric-helper draws (the Gilbert-Elliott / GOP / FLOP
        # shape) batch into arrays profitably enough to flag.
        if not (has_numeric and has_batchable_call):
            return []
        where = subsystem or "this"
        return [("PERF004", loop.lineno, loop.col_offset,
                 f"per-item python loop doing numeric work on a sim-hot "
                 f"`{where}` path in `{info.qualname}`; batch it into an "
                 "array operation (vectorization candidate)")]

    def _call_batch_trigger(self, call: ast.Call) -> bool:
        """Per-item rng/math/numeric-helper draws justify batching;
        builtins and ``.append`` are merely *allowed* inside the loop."""
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in RNG_METHODS:
                return True
            dotted = _dotted(func)
            if dotted is not None and dotted.startswith(("math.", "np.", "numpy.")):
                return True
        site = self._sites.get(id(call))
        if site is not None:
            if site.external is not None and site.external.startswith(
                ("math.", "numpy.")
            ):
                return True
            if site.callee is not None:
                return self._numeric_leaf(site.callee, frozenset())
        return False

    def _call_vectorizable(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id in NUMERIC_BUILTINS
        if isinstance(func, ast.Attribute):
            if func.attr == "append" or func.attr in RNG_METHODS:
                return True
            dotted = _dotted(func)
            if dotted is not None and dotted.startswith(("math.", "np.", "numpy.")):
                return True
        site = self._sites.get(id(call))
        if site is not None:
            if site.external is not None and site.external.startswith(
                ("math.", "numpy.")
            ):
                return True
            if site.callee is not None:
                return self._numeric_leaf(site.callee, frozenset())
        return False

    def _numeric_leaf(self, qualname: str, visiting: frozenset) -> bool:
        """True when ``qualname`` is straight-line numeric code (no loops,
        no yields, only vectorizable calls) -- safe to fold into a batch."""
        if qualname in self._leaf_memo:
            return self._leaf_memo[qualname]
        if qualname in visiting:
            return False
        info = self.graph.functions.get(qualname)
        if info is None:
            return False
        visiting = visiting | {qualname}
        verdict = True
        for n in _scan(info.node):
            if isinstance(
                n,
                (ast.For, ast.While, ast.Yield, ast.YieldFrom, ast.Try,
                 ast.With, ast.Await),
            ):
                verdict = False
                break
            if isinstance(n, ast.Call):
                func = n.func
                if isinstance(func, ast.Name) and func.id in NUMERIC_BUILTINS:
                    continue
                if isinstance(func, ast.Attribute) and func.attr in RNG_METHODS:
                    continue
                site = self._sites.get(id(n))
                if site is not None and site.external is not None:
                    if site.external.startswith(("math.", "numpy.")):
                        continue
                if site is not None and site.callee is not None:
                    if self._numeric_leaf(site.callee, visiting):
                        continue
                verdict = False
                break
        self._leaf_memo[qualname] = verdict
        return verdict

    # -- PERF005 -----------------------------------------------------------

    @staticmethod
    def _is_pure_formatter(func_node: ast.AST) -> bool:
        """Body (minus docstring) is a single ``return``: the format *is*
        the function's product, so PERF005's advice applies at call sites."""
        body = list(func_node.body)
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body = body[1:]
        return len(body) == 1 and isinstance(body[0], ast.Return)

    @staticmethod
    def _guarded_or_diagnostic_nodes(func_node: ast.AST) -> set[int]:
        """Formatting PERF005 must not flag: bodies of ``if <flag>.enabled:``
        guards (the fix the rule recommends) and arguments of exception
        constructors (error-path diagnostics)."""
        extra: set[int] = set()
        for n in _scan(func_node):
            if isinstance(n, ast.If):
                test = n.test
                flag = test.attr if isinstance(test, ast.Attribute) else (
                    test.id if isinstance(test, ast.Name) else None
                )
                if flag in GUARD_FLAGS:
                    for stmt in n.body:
                        for sub in ast.walk(stmt):
                            extra.add(id(sub))
            elif isinstance(n, ast.Call):
                dotted = _dotted(n.func)
                last = dotted.rsplit(".", 1)[-1] if dotted else ""
                if last.endswith(("Error", "Exception", "Warning")):
                    for sub in ast.walk(n):
                        extra.add(id(sub))
        return extra

    def _check_formatting(self, func_node, cold, info: FunctionInfo):
        if self._is_pure_formatter(func_node):
            return []
        out = []
        rule = "PERF005"
        cold = cold | self._guarded_or_diagnostic_nodes(func_node)
        for n in _scan(func_node):
            if id(n) in cold:
                continue
            if isinstance(n, ast.JoinedStr) and any(
                isinstance(v, ast.FormattedValue) for v in n.values
            ):
                out.append((rule, n.lineno, n.col_offset,
                            f"f-string formatted on every call of sim-hot "
                            f"`{info.qualname}`; guard it or precompute"))
            elif (
                isinstance(n, ast.BinOp)
                and isinstance(n.op, ast.Mod)
                and isinstance(n.left, ast.Constant)
                and isinstance(n.left.value, str)
            ):
                out.append((rule, n.lineno, n.col_offset,
                            "%-formatting evaluated on every call of sim-hot "
                            f"`{info.qualname}`; guard it or precompute"))
            elif isinstance(n, ast.Call):
                func = n.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "format"
                    and isinstance(func.value, ast.Constant)
                    and isinstance(func.value.value, str)
                ):
                    out.append((rule, n.lineno, n.col_offset,
                                "str.format() evaluated on every call of "
                                f"sim-hot `{info.qualname}`; guard it or "
                                "precompute"))
                elif isinstance(func, ast.Name) and func.id == "print":
                    out.append((rule, n.lineno, n.col_offset,
                                f"print() on sim-hot `{info.qualname}` "
                                "formats and blocks on I/O every event; "
                                "drop it or gate it off the hot path"))
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr in LOG_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in LOG_RECEIVERS
                ):
                    out.append((rule, n.lineno, n.col_offset,
                                f"logging call on sim-hot `{info.qualname}` "
                                "evaluates its arguments unconditionally "
                                "every event; guard with a level check"))
        return out

    # -- plumbing ----------------------------------------------------------

    def _finding(self, rule_id: str, path: str, line: int, col: int,
                 message: str) -> Finding:
        module = self.graph.modules_by_path().get(path)
        snippet = ""
        if module is not None:
            lines = module.source.splitlines()
            if 1 <= line <= len(lines):
                snippet = lines[line - 1].strip()
        return Finding(path=path, line=line, col=col, rule=rule_id,
                       message=message, snippet=snippet)

    def _apply_pragmas(self, findings: list[Finding]) -> list[Finding]:
        by_path = self.graph.modules_by_path()
        pragmas: dict[str, Pragmas] = {}
        kept = []
        for finding in findings:
            module = by_path.get(finding.path)
            if module is not None:
                if finding.path not in pragmas:
                    pragmas[finding.path] = Pragmas(module.source)
                if pragmas[finding.path].suppressed(finding.line, finding.rule):
                    continue
            kept.append(finding)
        return kept
