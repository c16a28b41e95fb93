"""The RPL001–RPL011 AST checkers: the repo's contracts, enforced.

RPL006 and RPL010 are retired: both live on inside RPL009, the one
rule for evaluation-knob signatures.

Each rule guards an invariant that was introduced by a specific PR and
is otherwise protected only by review attention (INVARIANTS.md at the
repository root documents every code, its origin and the legitimate
suppression story). The checkers are deliberately narrow: each one
matches the concrete idiom the contract is stated in, so a clean run
means the contract holds in the form the property tests pin down —
not that the rule outsmarted an adversary.
"""

from __future__ import annotations

import ast

from repro.lint.base import Checker, ModuleSource, match_path

__all__ = [
    "PowGroupingChecker",
    "ReadOnlyViewChecker",
    "SharedMemoryLifecycleChecker",
    "GlobalRngChecker",
    "PickledCacheChecker",
    "ExactCoefficientChecker",
    "PublicAnnotationChecker",
    "OptionsContractChecker",
    "ResourceLifecycleChecker",
    "AST_CHECKERS",
]


def _call_name(node: ast.Call) -> str:
    """The bare called name: ``f`` for ``f(...)`` and ``o.f(...)``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_numeric_constant(node: ast.AST) -> bool:
    """Is ``node`` a literal number (allowing a leading unary minus)?"""
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    )


def _keyword(node: ast.Call, name: str):
    """The keyword argument ``name`` of a call, or ``None``."""
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword
    return None


def _functions(tree: ast.Module):
    """Yield every function/method definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class PowGroupingChecker(Checker):
    """RPL001 — the pow-grouping bit-identity rule (PR 4).

    NumPy's ``**`` ufunc rounds grouping-dependently (SIMD inner loop
    vs. scalar tail), so a value computed inside a large dense layer
    and the same value recomputed in a small delta patch can differ in
    the last bit — breaking the engines' bit-identity contract. Inside
    the evaluation kernels every integer power must go through the
    ``_int_power`` left-associated multiply chain: ``**`` and
    ``numpy.power`` are banned except between literal numbers
    (constants like ``2**63`` are computed once, at import).
    """

    code = "RPL001"
    name = "pow-grouping"
    description = (
        "no **/numpy.power on arrays in the evaluation kernels; integer "
        "powers go through the _int_power multiply chain"
    )
    paths = ("core/batch.py", "core/columnar.py")

    def check(self, module: ModuleSource):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                if _is_numeric_constant(node.left) and _is_numeric_constant(
                    node.right
                ):
                    continue  # e.g. 2**63: folded once, grouping-free
                yield self.finding(
                    module, node,
                    "`**` is not bit-reproducible across array groupings; "
                    "use _int_power (left-associated multiply chain) so "
                    "dense and delta engines stay bit-identical",
                )
            elif isinstance(node, ast.Call):
                if module.resolve(node.func) == "numpy.power":
                    yield self.finding(
                        module, node,
                        "numpy.power is not bit-reproducible across array "
                        "groupings; use _int_power so dense and delta "
                        "engines stay bit-identical",
                    )


class ReadOnlyViewChecker(Checker):
    """RPL002 — buffer-backed views must be frozen before escaping (PR 6).

    ``read_artifact`` hands NumPy views *directly over an mmap* of the
    artifact file; a writable view would let evaluation code corrupt
    the artifact on disk. Every ``numpy.frombuffer`` result must be
    bound to a local name and made read-only (``x.flags.writeable =
    False``) inside the same function before anything else can see it.
    """

    code = "RPL002"
    name = "read-only-views"
    description = (
        "numpy.frombuffer views must set flags.writeable = False in the "
        "same function before escaping"
    )
    paths = ("core/binfmt.py",)

    def check(self, module: ModuleSource):
        for function in _functions(module.tree):
            bound = {}  # local name -> the frombuffer call node
            loose = []  # frombuffer calls not bound to a simple name
            frozen = set()  # names assigned .flags.writeable = False
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and (
                    module.resolve(node.func) == "numpy.frombuffer"
                ):
                    # A second pass below pairs calls with assignments.
                    loose.append(node)
                elif isinstance(node, ast.Assign):
                    self._collect_freeze(node, frozen)
            # Pair frombuffer calls with simple-name assignments.
            for node in ast.walk(function):
                if not isinstance(node, ast.Assign):
                    continue
                if node.value in loose and len(node.targets) == 1 and (
                    isinstance(node.targets[0], ast.Name)
                ):
                    bound[node.targets[0].id] = node.value
                    loose.remove(node.value)
            for call in loose:
                yield self.finding(
                    module, call,
                    "numpy.frombuffer view escapes without being bound to "
                    "a name and frozen (flags.writeable = False) — a "
                    "writable view aliases the mmap'd artifact file",
                )
            for name, call in bound.items():
                if name not in frozen:
                    yield self.finding(
                        module, call,
                        f"buffer view {name!r} is never made read-only; "
                        f"set {name}.flags.writeable = False before it "
                        "escapes (writable views alias the mmap'd file)",
                    )

    @staticmethod
    def _collect_freeze(node: ast.Assign, frozen: set):
        """Record ``X.flags.writeable = False`` targets into ``frozen``."""
        if not (
            isinstance(node.value, ast.Constant) and node.value.value is False
        ):
            return
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "writeable"
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "flags"
                and isinstance(target.value.value, ast.Name)
            ):
                frozen.add(target.value.value.id)


class SharedMemoryLifecycleChecker(Checker):
    """RPL003 — the shared-memory segment lifecycle (PR 6).

    The parent creates exactly one segment and its single ``unlink()``
    at pool exit balances the resource tracker; a worker that unlinks
    (or a creator that never unlinks) either leaks ``/dev/shm`` or
    over-removes from the tracker's shared set. Enforced shape: a
    module that calls ``SharedMemory(create=True)`` must also call
    ``.unlink()`` somewhere, and a function that *attaches* (a
    ``SharedMemory`` call without ``create=True`` — worker-side code)
    must never call ``.unlink()`` itself.
    """

    code = "RPL003"
    name = "shm-lifecycle"
    description = (
        "SharedMemory(create=True) pairs with unlink() in the same "
        "module; attach-side (worker) code never unlinks"
    )

    def check(self, module: ModuleSource):
        creators = []
        has_unlink = False
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                if _call_name(node) == "unlink":
                    has_unlink = True
                if self._is_create(node):
                    creators.append(node)
        if creators and not has_unlink:
            for creator in creators:
                yield self.finding(
                    module, creator,
                    "SharedMemory(create=True) has no paired unlink() in "
                    "this module — the segment would leak in /dev/shm",
                )
        for function in _functions(module.tree):
            attaches = False
            creates = False
            unlinks = []
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                if self._is_create(node):
                    creates = True
                elif _call_name(node) == "SharedMemory":
                    attaches = True
                elif _call_name(node) == "unlink":
                    unlinks.append(node)
            if attaches and not creates:
                for unlink in unlinks:
                    yield self.finding(
                        module, unlink,
                        "worker-side (attaching) code must never unlink "
                        "the segment — the resource-tracker cache is one "
                        "set per process tree and the parent's single "
                        "unlink() balances it",
                    )

    @staticmethod
    def _is_create(node: ast.Call) -> bool:
        if _call_name(node) != "SharedMemory":
            return False
        keyword = _keyword(node, "create")
        return keyword is not None and (
            isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
        )


class GlobalRngChecker(Checker):
    """RPL004 — all randomness flows through seeded generators.

    Module-global RNG state (``random.random()``, the legacy
    ``numpy.random.*`` API) makes results depend on import order and
    call history — the reproducibility story of
    :mod:`repro.util.rng` (per-component SHA-derived sub-seeds) only
    holds if nothing else draws from shared state. Constructing seeded
    generator *objects* (``random.Random(seed)``,
    ``numpy.random.default_rng(seed)``) is the sanctioned idiom.
    """

    code = "RPL004"
    name = "no-global-rng"
    description = (
        "no module-global RNG (random.*, legacy numpy.random.*) — "
        "randomness flows through seeded generators (util/rng.py)"
    )
    exclude_paths = ("util/rng.py", "workloads/")

    #: Seeded-generator constructors (not shared state) — allowed.
    _ALLOWED = frozenset({
        "random.Random",
        "random.SystemRandom",
        "numpy.random.Generator",
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
    })

    def check(self, module: ModuleSource):
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.resolve(node.func)
            if not dotted or dotted in self._ALLOWED:
                continue
            if dotted.startswith("random.") or dotted.startswith(
                "numpy.random."
            ):
                yield self.finding(
                    module, node,
                    f"{dotted} draws from module-global RNG state; "
                    "derive a seeded generator via repro.util.rng "
                    "(derive_rng) or numpy.random.default_rng(seed)",
                )


class PickledCacheChecker(Checker):
    """RPL005 — pickled state excludes lazily-rebuilt caches.

    Compiled-set delta indexes, baseline caches and columnar views are
    derived data: shipping them to workers wastes bandwidth and — for
    buffer-backed views — pickles arrays that alias an mmap. Classes
    defining ``__getstate__`` must not reference the known cache
    attributes (they rebuild on demand after unpickling), and must not
    return ``self.__dict__`` wholesale.
    """

    code = "RPL005"
    name = "no-pickled-caches"
    description = (
        "__getstate__ must exclude cache attributes (_delta, "
        "_baselines, _compiled, _columnar, ...) — caches rebuild lazily"
    )

    #: Attribute names recognized as caches across the codebase (the
    #: PR-4/5/6 lazily-rebuilt structures, plus their historical names).
    CACHE_ATTRS = frozenset({
        "_compiled",
        "_columnar",
        "_columnar_cache",
        "_delta",
        "_delta_index",
        "_baselines",
        "_baseline_cache",
        "_materialized",
    })

    def check(self, module: ModuleSource):
        for function in _functions(module.tree):
            if function.name != "__getstate__":
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in self.CACHE_ATTRS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    yield self.finding(
                        module, node,
                        f"__getstate__ references cache attribute "
                        f"{node.attr!r}; caches must be dropped from the "
                        "pickled state and rebuilt lazily on load",
                    )
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value in self.CACHE_ATTRS
                ):
                    yield self.finding(
                        module, node,
                        f"__getstate__ names cache attribute "
                        f"{node.value!r}; caches must be dropped from the "
                        "pickled state and rebuilt lazily on load",
                    )
                elif (
                    isinstance(node, ast.Attribute)
                    and node.attr == "__dict__"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    yield self.finding(
                        module, node,
                        "__getstate__ returns self.__dict__ wholesale — "
                        "cache attributes would travel; build the state "
                        "explicitly",
                    )


class ExactCoefficientChecker(Checker):
    """RPL007 — exact coefficients never pass through floats (PR 6).

    The serialization layer round-trips big ints and Fractions
    *exactly*; one ``float()`` coercion (or a float literal smuggled
    into a comparison) silently destroys the COBRA-style exactness the
    provenance semantics rest on. Float handling is confined to the
    designated f64 buffer branch (``_encode_coeffs``/
    ``_decode_coeffs`` in the binary container).
    """

    code = "RPL007"
    name = "exact-coefficients"
    description = (
        "no float() coercion or float literals on the exact-coefficient "
        "serialization paths (outside the designated f64 buffer branch)"
    )
    paths = ("core/serialize.py", "core/binfmt.py")

    #: Functions that ARE the f64 buffer branch — float handling is
    #: their job (kinds are tagged per row; floats stay bit-exact).
    ALLOWED_FUNCTIONS = frozenset({"_encode_coeffs", "_decode_coeffs"})

    def check(self, module: ModuleSource):
        allowed_ranges = []
        for function in _functions(module.tree):
            if function.name in self.ALLOWED_FUNCTIONS:
                allowed_ranges.append(
                    (function.lineno, function.end_lineno or function.lineno)
                )

        def is_allowed(node):
            line = getattr(node, "lineno", 0)
            return any(lo <= line <= hi for lo, hi in allowed_ranges)

        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
                and not is_allowed(node)
            ):
                yield self.finding(
                    module, node,
                    "float() coercion on an exact-coefficient path — big "
                    "ints and Fractions must round-trip exactly; confine "
                    "float handling to the f64 buffer branch",
                )
            elif (
                isinstance(node, ast.Constant)
                and type(node.value) is float
                and not is_allowed(node)
            ):
                yield self.finding(
                    module, node,
                    f"float literal {node.value!r} on an exact-"
                    "coefficient path — keep exact and float handling "
                    "in the designated f64 buffer branch",
                )


class PublicAnnotationChecker(Checker):
    """RPL008 — the public facade carries type annotations.

    The package ships a ``py.typed`` marker, so downstream type
    checkers consume these signatures; an unannotated public callable
    in the facade degrades every caller to ``Any``.
    """

    code = "RPL008"
    name = "typed-facade"
    description = (
        "public functions/methods of the api facade must annotate "
        "parameters and return types"
    )
    paths = (
        "api/session.py",
        "api/artifact.py",
        "api/__init__.py",
        "repro/__init__.py",
    )

    def check(self, module: ModuleSource):
        for function, is_method in self._public_surface(module.tree):
            skip_first = is_method and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in function.decorator_list
            )
            args = function.args
            positional = list(args.posonlyargs) + list(args.args)
            if skip_first and positional:
                positional = positional[1:]
            for arg in positional + list(args.kwonlyargs):
                if arg.annotation is None:
                    yield self.finding(
                        module, function,
                        f"public callable {function.name!r}: parameter "
                        f"{arg.arg!r} has no type annotation",
                    )
            for arg in (args.vararg, args.kwarg):
                if arg is not None and arg.annotation is None:
                    yield self.finding(
                        module, function,
                        f"public callable {function.name!r}: parameter "
                        f"{arg.arg!r} has no type annotation",
                    )
            if function.returns is None:
                yield self.finding(
                    module, function,
                    f"public callable {function.name!r} has no return "
                    "annotation",
                )

    @staticmethod
    def _public_surface(tree: ast.Module):
        """``(function, is_method)`` for the module's public surface.

        Public module-level functions, and — in public classes —
        public methods plus ``__init__``; other dunders are exempt
        (their types are structural).
        """
        def wanted(name):
            return not name.startswith("_") or name == "__init__"

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if wanted(node.name):
                    yield node, False
            elif isinstance(node, ast.ClassDef) and not node.name.startswith(
                "_"
            ):
                dataclass_like = any(
                    (isinstance(d, ast.Name) and d.id == "dataclass")
                    or (
                        isinstance(d, ast.Call)
                        and isinstance(d.func, ast.Name)
                        and d.func.id == "dataclass"
                    )
                    for d in node.decorator_list
                )
                for item in node.body:
                    if not isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    if item.name == "__init__" and dataclass_like:
                        continue  # generated by @dataclass
                    if wanted(item.name):
                        yield item, True


class OptionsContractChecker(Checker):
    """RPL009 — one spelling per evaluation knob.

    :class:`repro.options.EvalOptions` is the only way to set an
    evaluation knob, and only entry points that read a knob take it:

    * a public callable of the facade or the analysis layer that
      reaches an evaluation sink accepts ``options=`` and passes it on
      to the sink — as ``options=``, or as the knobs it resolved to
      (``engine=opts.engine``, …) — so a caller can pin an engine end
      to end and the ``auto`` policy resolves exactly once;
    * no public callable there, or in the service's routes, accepts a
      bare ``engine``/``workers``/``chunk_size``/``backend`` keyword.

    Compression and mutation reach no sink, so they take no
    ``options=``. ``scenarios/parallel.py`` is the mechanism layer the
    options resolve into and keeps its keyword parameters.
    """

    code = "RPL009"
    name = "options-contract"
    description = (
        "facade/analysis callables reaching an evaluation sink accept "
        "options= and pass it on; no public callable takes a bare "
        "engine/workers/chunk_size/backend keyword"
    )
    paths = ("api/", "scenarios/analysis.py", "service/app.py")

    #: Where a callable reaching a sink must take and pass on options=.
    THREADED = ("api/", "scenarios/analysis.py")

    #: Evaluation sink -> the resolved knobs it takes as keywords (a
    #: call passes the options on with options= or with all of them).
    SINKS = {
        "evaluate_batch": ("engine",),
        "evaluate_scenarios": (),
        "evaluate_scenarios_parallel": ("engine", "workers"),
        "iter_value_blocks": ("engine", "workers"),
        "ask_many": (),
    }

    #: The bare per-knob keywords no public signature may expose.
    KNOBS = frozenset({"engine", "workers", "chunk_size", "backend"})

    def check(self, module: ModuleSource):
        threaded = any(match_path(module.path, p) for p in self.THREADED)
        for function, _ in PublicAnnotationChecker._public_surface(
            module.tree
        ):
            args = function.args
            params = {
                a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
            }
            for knob in sorted(params & self.KNOBS):
                yield self.finding(
                    module, function,
                    f"public callable {function.name!r} accepts the bare "
                    f"{knob}= keyword — evaluation knobs travel only in "
                    "options=EvalOptions(...)",
                )
            if threaded:
                yield from self._threading(module, function, params)

    def _threading(self, module, function, params):
        accepts = "options" in params or function.args.kwarg is not None
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            sink = _call_name(node)
            if sink not in self.SINKS:
                continue
            if not accepts:
                yield self.finding(
                    module, function,
                    f"public callable {function.name!r} reaches {sink}() "
                    "but does not accept options= — evaluation entry "
                    "points take the bundled EvalOptions knob",
                )
                return
            passed = {kw.arg for kw in node.keywords}
            if not (
                "options" in passed
                or None in passed  # **kwargs
                or (self.SINKS[sink] and passed.issuperset(self.SINKS[sink]))
            ):
                yield self.finding(
                    module, node,
                    f"public callable {function.name!r} does not pass its "
                    f"options on to {sink}() — the caller's choice would "
                    "be silently re-defaulted",
                )


class ResourceLifecycleChecker(Checker):
    """RPL011 — leak-prone acquisitions sit under try/finally (PR 10).

    Three acquisitions in this codebase survive their creator if an
    exception lands between acquire and release: a shared-memory
    segment (stays in ``/dev/shm``), an ``mkstemp`` temp file (stays
    in the spool and poisons crash recovery statistics), and an
    installed fault plan (leaks scheduled chaos into unrelated code).
    Each such call must be protected: inside a ``with`` block, inside
    a ``try`` that has a ``finally``, or — the acquisition-assignment
    idiom — as the statement *immediately* followed by a
    ``try``/``finally`` that owns the cleanup. A bare call with the
    release further down the happy path leaks on the first exception
    in between (the PR-10 shared-memory leak, exactly).
    """

    code = "RPL011"
    name = "resource-lifecycle"
    description = (
        "SharedMemory(create=True), mkstemp and fault-plan install() "
        "must sit inside try/finally or a context manager"
    )

    def check(self, module: ModuleSource):
        parents = {
            child: parent
            for parent in ast.walk(module.tree)
            for child in ast.iter_child_nodes(parent)
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            what = self._acquisition(module, node)
            if what is None or self._protected(node, parents):
                continue
            yield self.finding(
                module, node,
                f"{what} is not protected by try/finally or a context "
                "manager — an exception before the release leaks the "
                "resource; put the cleanup in a finally immediately "
                "following the acquisition",
            )

    @staticmethod
    def _acquisition(module: ModuleSource, node: ast.Call) -> str | None:
        """The acquisition kind of a call, or ``None`` for other calls."""
        if SharedMemoryLifecycleChecker._is_create(node):
            return "SharedMemory(create=True)"
        dotted = module.resolve(node.func)
        if dotted == "tempfile.mkstemp":
            return "tempfile.mkstemp()"
        if dotted == "repro.faults.install" or dotted.endswith(
            ".faults.install"
        ):
            return "fault-plan install()"
        return None

    @staticmethod
    def _protected(node: ast.Call, parents: dict) -> bool:
        """Is ``node`` under a ``with``, a ``try``/``finally``, or an
        acquisition statement immediately followed by one?"""
        child: ast.AST = node
        while True:
            parent = parents.get(child)
            if parent is None:
                return False
            if isinstance(parent, (ast.With, ast.AsyncWith)):
                return True
            if isinstance(parent, ast.Try) and parent.finalbody:
                return True
            if isinstance(child, ast.stmt):
                for fieldname in ("body", "orelse", "finalbody"):
                    block = getattr(parent, fieldname, None)
                    if isinstance(block, list) and child in block:
                        index = block.index(child)
                        if index + 1 < len(block):
                            after = block[index + 1]
                            if isinstance(after, ast.Try) and after.finalbody:
                                return True
            child = parent


#: Registration order == report order for same-line findings.
AST_CHECKERS = (
    PowGroupingChecker,
    ReadOnlyViewChecker,
    SharedMemoryLifecycleChecker,
    GlobalRngChecker,
    PickledCacheChecker,
    ExactCoefficientChecker,
    PublicAnnotationChecker,
    OptionsContractChecker,
    ResourceLifecycleChecker,
)
