"""RL1xx: determinism rules.

RL101/RL103 forbid ambient entropy (stdlib ``random``, ``uuid``,
``secrets``, ``os.urandom``); RL102 forbids wall-clock reads outside the
sanctioned clock module; RL104 forbids constructing or using numpy RNGs
outside ``repro.simulation.rng``; RL105 keeps changes to the cyclic
collector's state in ``repro.experiments.runner``; RL110 flags iteration over sets without
a ``sorted(...)`` wrapper in determinism-critical modules (event
scheduling and tree construction must not depend on hash order).

RL110 uses a deliberately simple, local type inference: a name is
"set-typed" when it is annotated as a set, assigned from a set literal /
``set()`` / set comprehension / set operator, or when the attribute name
is declared set-typed by any class in the scanned file set (which is how
``config.initially_dead`` is recognised far from its declaration).
The same inference extends to *bucket tables* -- dicts of sets, declared
via a ``Dict[..., Set[...]]``-style annotation or a ``defaultdict(set)``
assignment (the spatial-hash shape): ``buckets[cell]`` and
``buckets.get(cell)`` count as sets, and draining the table itself (or
its ``keys()``/``items()``/``values()``) in raw key order is flagged,
since the canonical drain order for buckets is sorted cell order.
False positives are expected to be rare and are suppressed with a
``# reprolint: disable=RL110`` pragma carrying a one-line justification.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from .core import Finding, SourceFile, dotted_name

#: Dotted-call suffixes that read the wall clock.
WALL_CLOCK_SUFFIXES = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}

#: ``gc`` functions that change collector state (RL105).
COLLECTOR_STATE_FUNCS = {"disable", "enable", "freeze", "set_threshold"}

#: Names that build or transform sets when called as methods.
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}

_SET_ANNOTATION_NAMES = {
    "Set",
    "FrozenSet",
    "AbstractSet",
    "MutableSet",
    "set",
    "frozenset",
}

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

_DICT_ANNOTATION_NAMES = {
    "Dict",
    "DefaultDict",
    "Mapping",
    "MutableMapping",
    "dict",
}


def _annotation_is_set(node: ast.AST) -> bool:
    """Whether an annotation expression denotes a set type.

    Only the *outermost* constructor counts: ``Set[int]`` and
    ``Optional[Set[int]]`` are set-typed, ``Dict[int, Set[int]]`` is not.
    """
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value) or ""
        leaf = base.rsplit(".", 1)[-1]
        if leaf in _SET_ANNOTATION_NAMES:
            return True
        if leaf == "Optional":
            return _annotation_is_set(node.slice)
        return False
    name = dotted_name(node)
    if name is None:
        return False
    return name.rsplit(".", 1)[-1] in _SET_ANNOTATION_NAMES


def _annotation_is_bucket_dict(node: ast.AST) -> bool:
    """Whether an annotation denotes a dict whose *values* are sets.

    ``Dict[Cell, Set[NodeId]]`` (and the ``DefaultDict`` / ``Mapping``
    variants) is the bucket-table shape spatial hashing uses; iterating
    such a structure's value sets -- or draining the table itself in raw
    key order -- is the same hash-order hazard RL110 exists to catch.
    """
    if not isinstance(node, ast.Subscript):
        return False
    base = dotted_name(node.value) or ""
    leaf = base.rsplit(".", 1)[-1]
    if leaf == "Optional":
        return _annotation_is_bucket_dict(node.slice)
    if leaf not in _DICT_ANNOTATION_NAMES:
        return False
    sl = node.slice
    return (
        isinstance(sl, ast.Tuple)
        and len(sl.elts) == 2
        and _annotation_is_set(sl.elts[1])
    )


def _is_defaultdict_of_sets(node: ast.AST) -> bool:
    """``defaultdict(set)`` / ``collections.defaultdict(frozenset)``."""
    if not (isinstance(node, ast.Call) and node.args):
        return False
    name = dotted_name(node.func) or ""
    if name.rsplit(".", 1)[-1] != "defaultdict":
        return False
    factory = dotted_name(node.args[0])
    return factory in ("set", "frozenset")


def _call_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Call):
        return dotted_name(node.func)
    return None


class _SetTracker:
    """Per-scope table of set-typed names and ``self.<attr>`` attributes.

    Also tracks *bucket tables* -- dicts whose values are sets, the
    spatial-hash shape -- so that ``buckets[cell]`` / ``buckets.get(cell)``
    count as set-typed expressions and draining the table itself in raw
    key order is flagged alongside plain set iteration.
    """

    def __init__(
        self,
        global_set_attrs: Set[str],
        global_bucket_attrs: Optional[Set[str]] = None,
    ):
        self.names: Set[str] = set()
        self.self_attrs: Set[str] = set()
        self.global_set_attrs = global_set_attrs
        self.bucket_names: Set[str] = set()
        self.bucket_self_attrs: Set[str] = set()
        self.global_bucket_attrs = global_bucket_attrs or set()

    def is_setty(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.self_attrs
            ):
                return True
            return node.attr in self.global_set_attrs
        if isinstance(node, ast.Subscript):
            # buckets[cell] is one bucket: a set.
            return self.is_bucketty(node.value)
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in _SET_METHODS:
                    return self.is_setty(node.func.value)
                if node.func.attr == "get" and self.is_bucketty(
                    node.func.value
                ):
                    return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self.is_setty(node.left) or self.is_setty(node.right)
        return False

    def is_bucketty(self, node: ast.expr) -> bool:
        """Whether ``node`` denotes a dict-of-sets bucket table."""
        if isinstance(node, ast.Name):
            return node.id in self.bucket_names
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.bucket_self_attrs
            ):
                return True
            return node.attr in self.global_bucket_attrs
        return _is_defaultdict_of_sets(node)

    def learn(self, target: ast.expr, *, setty: bool) -> None:
        if isinstance(target, ast.Name):
            if setty:
                self.names.add(target.id)
            else:
                self.names.discard(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            if setty:
                self.self_attrs.add(target.attr)
            else:
                self.self_attrs.discard(target.attr)

    def learn_bucket(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.bucket_names.add(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.bucket_self_attrs.add(target.attr)


def collect_global_set_attrs(files: Iterable[SourceFile]) -> Set[str]:
    """Attribute names declared set-typed by any scanned class or module.

    Pulls from class-body annotations (``initially_dead: Set[NodeId]``)
    and from ``self.x = set()``-style constructor assignments, so other
    modules iterating ``obj.initially_dead`` are recognised.
    """
    attrs: Set[str] = set()
    for src in files:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.AnnAssign) and _annotation_is_set(
                node.annotation
            ):
                if isinstance(node.target, ast.Name):
                    attrs.add(node.target.id)
                elif isinstance(node.target, ast.Attribute):
                    attrs.add(node.target.attr)
            elif isinstance(node, ast.Assign):
                value_setty = isinstance(
                    node.value, (ast.Set, ast.SetComp)
                ) or _call_name(node.value) in ("set", "frozenset")
                if not value_setty:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        attrs.add(target.attr)
    return attrs


def collect_global_bucket_attrs(files: Iterable[SourceFile]) -> Set[str]:
    """Attribute names declared as dict-of-sets bucket tables anywhere.

    The bucket analogue of :func:`collect_global_set_attrs`: pulls from
    ``_buckets: Dict[Cell, Set[NodeId]]``-style annotations and from
    ``self.x = defaultdict(set)`` constructor assignments.
    """
    attrs: Set[str] = set()
    for src in files:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.AnnAssign) and _annotation_is_bucket_dict(
                node.annotation
            ):
                if isinstance(node.target, ast.Name):
                    attrs.add(node.target.id)
                elif isinstance(node.target, ast.Attribute):
                    attrs.add(node.target.attr)
            elif isinstance(node, ast.Assign) and _is_defaultdict_of_sets(
                node.value
            ):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        attrs.add(target.attr)
    return attrs


def _scopes(tree: ast.Module):
    """Yield (body, is_module_scope) for the module and each function."""
    yield tree.body, True
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body, False


def _check_rl110(
    src: SourceFile,
    global_set_attrs: Set[str],
    global_bucket_attrs: Set[str],
) -> List[Finding]:
    findings: List[Finding] = []
    self_attrs: Set[str] = set()
    bucket_self_attrs: Set[str] = set()
    # Pass 1: class-wide self attributes (annotations + assignments).
    for node in ast.walk(src.tree):
        if isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
            ):
                if _annotation_is_set(node.annotation):
                    self_attrs.add(node.target.attr)
                elif _annotation_is_bucket_dict(node.annotation):
                    bucket_self_attrs.add(node.target.attr)
        elif isinstance(node, ast.Assign):
            probe = _SetTracker(global_set_attrs, global_bucket_attrs)
            value_setty = probe.is_setty(node.value)
            value_bucket = _is_defaultdict_of_sets(node.value)
            if not (value_setty or value_bucket):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    if value_setty:
                        self_attrs.add(target.attr)
                    else:
                        bucket_self_attrs.add(target.attr)

    seen: Set[int] = set()
    for body, _is_module in _scopes(src.tree):
        tracker = _SetTracker(global_set_attrs, global_bucket_attrs)
        tracker.self_attrs = set(self_attrs)
        tracker.bucket_self_attrs = set(bucket_self_attrs)
        # Gather set-typed names in this scope (annotations + assignments).
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for arg in (
                        node.args.posonlyargs
                        + node.args.args
                        + node.args.kwonlyargs
                    ):
                        if arg.annotation is None:
                            continue
                        if _annotation_is_set(arg.annotation):
                            tracker.names.add(arg.arg)
                        elif _annotation_is_bucket_dict(arg.annotation):
                            tracker.bucket_names.add(arg.arg)
                elif isinstance(node, ast.AnnAssign):
                    if _annotation_is_set(node.annotation):
                        tracker.learn(node.target, setty=True)
                    elif _annotation_is_bucket_dict(node.annotation):
                        tracker.learn_bucket(node.target)
                elif isinstance(node, ast.Assign):
                    setty = tracker.is_setty(node.value)
                    bucket = _is_defaultdict_of_sets(node.value)
                    for target in node.targets:
                        if setty:
                            tracker.learn(target, setty=True)
                        elif bucket:
                            tracker.learn_bucket(target)
        # Flag unsorted iteration.
        for stmt in body:
            for node in ast.walk(stmt):
                iters: List[ast.expr] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    if id(it) in seen:
                        continue
                    if tracker.is_setty(it):
                        seen.add(id(it))
                        findings.append(
                            Finding(
                                code="RL110",
                                path=src.rel,
                                line=it.lineno,
                                message=(
                                    "iteration over a set in "
                                    "determinism-critical code; wrap the "
                                    "iterable in sorted(...) or justify "
                                    "with a pragma"
                                ),
                            )
                        )
                    elif _is_bucket_drain(it, tracker):
                        seen.add(id(it))
                        findings.append(
                            Finding(
                                code="RL110",
                                path=src.rel,
                                line=it.lineno,
                                message=(
                                    "bucket table drained in raw key "
                                    "order in determinism-critical code; "
                                    "iterate sorted(cells) and sorted "
                                    "bucket members instead"
                                ),
                            )
                        )
    return findings


def _is_bucket_drain(it: ast.expr, tracker: _SetTracker) -> bool:
    """Iteration over a bucket table itself or its keys/items/values."""
    if tracker.is_bucketty(it):
        return True
    return (
        isinstance(it, ast.Call)
        and isinstance(it.func, ast.Attribute)
        and it.func.attr in ("keys", "items", "values")
        and tracker.is_bucketty(it.func.value)
    )


def check(files: List[SourceFile]) -> List[Finding]:
    findings: List[Finding] = []
    global_set_attrs = collect_global_set_attrs(files)
    global_bucket_attrs = collect_global_bucket_attrs(files)
    for src in files:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "random" and not src.rng_exempt:
                        findings.append(
                            Finding(
                                "RL101",
                                src.rel,
                                node.lineno,
                                "stdlib `random` imported; use "
                                "RandomStreams (repro.simulation.rng)",
                            )
                        )
                    elif root in ("uuid", "secrets") and not src.rng_exempt:
                        findings.append(
                            Finding(
                                "RL103",
                                src.rel,
                                node.lineno,
                                f"entropy module `{root}` imported; ids "
                                "must be derived from configuration",
                            )
                        )
                    elif (
                        alias.name.startswith("numpy.random")
                        and not src.rng_exempt
                    ):
                        findings.append(
                            Finding(
                                "RL104",
                                src.rel,
                                node.lineno,
                                "numpy.random imported directly; draw "
                                "from a named RandomStreams stream",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                root = module.split(".")[0]
                if root == "random" and not src.rng_exempt:
                    findings.append(
                        Finding(
                            "RL101",
                            src.rel,
                            node.lineno,
                            "stdlib `random` imported; use RandomStreams "
                            "(repro.simulation.rng)",
                        )
                    )
                elif root in ("uuid", "secrets") and not src.rng_exempt:
                    findings.append(
                        Finding(
                            "RL103",
                            src.rel,
                            node.lineno,
                            f"entropy module `{root}` imported; ids must "
                            "be derived from configuration",
                        )
                    )
                elif module == "numpy.random" and not src.rng_exempt:
                    findings.append(
                        Finding(
                            "RL104",
                            src.rel,
                            node.lineno,
                            "numpy.random imported directly; draw from a "
                            "named RandomStreams stream",
                        )
                    )
                elif module == "gc" and not src.gc_exempt:
                    for alias in node.names:
                        if alias.name in COLLECTOR_STATE_FUNCS:
                            findings.append(
                                Finding(
                                    "RL105",
                                    src.rel,
                                    node.lineno,
                                    f"`gc.{alias.name}` imported; collector "
                                    "state belongs to "
                                    "repro.experiments.runner",
                                )
                            )
                elif module == "time" and not src.clock_exempt:
                    for alias in node.names:
                        if alias.name in ("time", "time_ns"):
                            findings.append(
                                Finding(
                                    "RL102",
                                    src.rel,
                                    node.lineno,
                                    "wall-clock accessor imported from "
                                    "`time`; inject a clock instead "
                                    "(repro.utils.clock)",
                                )
                            )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func) or ""
                leaf2 = ".".join(name.split(".")[-2:])
                if leaf2 in WALL_CLOCK_SUFFIXES and not src.clock_exempt:
                    findings.append(
                        Finding(
                            "RL102",
                            src.rel,
                            node.lineno,
                            f"wall-clock read `{name}()`; accept an "
                            "injectable `now`/clock parameter instead "
                            "(repro.utils.clock)",
                        )
                    )
                elif (
                    leaf2.startswith("gc.")
                    and leaf2[3:] in COLLECTOR_STATE_FUNCS
                    and not src.gc_exempt
                ):
                    findings.append(
                        Finding(
                            "RL105",
                            src.rel,
                            node.lineno,
                            f"`{name}()` changes collector state; only "
                            "repro.experiments.runner may (it pauses the "
                            "collector per trial)",
                        )
                    )
                elif leaf2 == "os.urandom" and not src.rng_exempt:
                    findings.append(
                        Finding(
                            "RL103",
                            src.rel,
                            node.lineno,
                            "os.urandom() is unseedable entropy",
                        )
                    )
                elif (
                    name.startswith(("np.random.", "numpy.random."))
                    and not src.rng_exempt
                ):
                    findings.append(
                        Finding(
                            "RL104",
                            src.rel,
                            node.lineno,
                            f"direct numpy RNG call `{name}(...)`; draw "
                            "from a named RandomStreams stream",
                        )
                    )
        if src.determinism_critical:
            findings.extend(
                _check_rl110(src, global_set_attrs, global_bucket_attrs)
            )
    return findings
