"""The declarative method registry: one :class:`MethodSpec` per algorithm.

Before this module, the engine stack kept three parallel, hand-maintained
method tables — ``workers.CHECK_METHODS`` (name → check function),
``engine.PORTFOLIO_METHODS`` (display name → registry name for the Table 4
race) and ``store.MONOTONE_METHODS`` (names whose verdicts feed the bounds
index) — plus ``driver.GHD_ALGORITHMS`` on the sequential side.  A method
that appeared in one table but not another silently lost behaviour (no
caching, no race eligibility, no bound propagation).

A :class:`MethodSpec` declares everything about one method in one place:

``name`` / ``display``
    The registry key (what the CLI, store rows and journal lines use) and
    the human-facing label (Tables 3/4 use the display names).
``kind``
    The *width kind* the method reports: ``hw``, ``ghw`` or ``fhw``
    (``None`` for ad-hoc methods registered at runtime).
``check``
    The ``Check(H, k)`` function (operating on hypergraphs whose dense
    :class:`~repro.core.bitset.HypergraphView` is cached per instance).
    ``None`` for virtual methods such as ``portfolio``, which is a cache
    key for race results, not a dispatchable algorithm.
``portfolio``
    Eligible for the Table 4 race (GlobalBIP / LocalBIP / BalSep).
``monotone``
    ``Check(H, k)`` is monotone in ``k``, so definite verdicts feed the
    store's bounds index.  Runtime-registered methods default to ``False``:
    the store cannot know whether a custom search space is nested.
``decision_kind``
    The width kind whose ``width ≤ k`` question the method's verdict
    answers — this drives **cross-method bound propagation**.  It can
    differ from ``kind``: ``fracimprove`` *reports* fractional widths but
    its yes/no verdict is exactly ``hw ≤ k`` (it improves an HD that must
    exist first), so its verdicts are evidence about ``hw``.
``witness_kind``
    The :class:`~repro.core.decomposition.Decomposition` kind its yes rows
    carry (``HD`` / ``GHD`` / ``FHD``).  Cross-method implied answers only
    borrow a witness decomposition from methods with the same
    ``decision_kind`` *and* ``witness_kind`` — a GHD found by BalSep is a
    valid witness for a LocalBIP "yes", but an FHD is not an HD.
``witness_required``
    The method's deliverable is the decomposition itself, not just the
    verdict (``fracimprove``: the Table 6 value is the FHD's width at this
    k).  It consumes implied "no"s but never an implied "yes": a
    cross-method one has no such witness, and its own row at a smaller k
    holds an FHD that is not this k's best, so the method executes
    instead.

The default registrations happen lazily on first registry access, so this
module has **no import-time dependency** on :mod:`repro.decomp` and can be
imported from anywhere in the stack (the store, the workers, the sequential
driver) without cycles.

The registry is the single source of truth every live view derives from:

>>> from repro.engine import methods
>>> methods.get("hd").display
'DetKDecomp'
>>> sorted(methods.portfolio_methods())         # the Table 4 race lineup
['BalSep', 'GlobalBIP', 'LocalBIP']
>>> methods.decision_kind_of("fracimprove")     # its verdicts decide hw <= k
'hw'
>>> "portfolio" in methods.CHECK_METHODS        # virtual keys don't dispatch
False
>>> methods.get("fracimprove").witness_required  # its FHD *is* the deliverable
True
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, replace

from repro.errors import ReproError

__all__ = [
    "HW",
    "GHW",
    "FHW",
    "WIDTH_KINDS",
    "PORTFOLIO_KEY",
    "MethodSpec",
    "CHECK_METHODS",
    "register",
    "register_check",
    "get",
    "get_optional",
    "resolve",
    "specs",
    "method_names",
    "portfolio_methods",
    "monotone_names",
    "decision_kind_of",
]

#: The three width kinds of the paper: hypertree width, generalized
#: hypertree width, fractional hypertree width (fhw ≤ ghw ≤ hw ≤ 3·ghw + 1).
HW = "hw"
GHW = "ghw"
FHW = "fhw"
WIDTH_KINDS = (HW, GHW, FHW)

#: The store/journal key for Table 4 race results (a virtual method).
PORTFOLIO_KEY = "portfolio"


@dataclass(frozen=True)
class MethodSpec:
    """Declarative description of one check method (see module docstring)."""

    name: str
    display: str
    kind: str | None
    check: Callable | None
    portfolio: bool = False
    monotone: bool = False
    decision_kind: str | None = None
    witness_kind: str | None = None
    witness_required: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("method specs need a non-empty name")
        for field_name in ("kind", "decision_kind"):
            value = getattr(self, field_name)
            if value is not None and value not in WIDTH_KINDS:
                raise ReproError(
                    f"method {self.name!r}: unknown {field_name} {value!r}; "
                    f"known width kinds: {WIDTH_KINDS}"
                )

    @property
    def dispatchable(self) -> bool:
        """Whether the method can actually run (virtual keys cannot)."""
        return self.check is not None


_REGISTRY: dict[str, MethodSpec] = {}
_defaults_loaded = False


def _ensure_defaults() -> None:
    """Register the paper's six methods (+ the portfolio key) on first use.

    Imports from :mod:`repro.decomp` happen here — at call time, never at
    import time — so the registry can be consumed from modules the decomp
    package itself imports.  The flag is set before registering: the decomp
    modules never touch the registry at import time, so re-entrancy cannot
    observe a half-filled table.
    """
    global _defaults_loaded
    if _defaults_loaded:
        return
    _defaults_loaded = True

    from repro.decomp.balsep import check_ghd_balsep
    from repro.decomp.detkdecomp import check_hd
    from repro.decomp.fractional import check_frac_best
    from repro.decomp.globalbip import check_ghd_global_bip
    from repro.decomp.hybrid import check_ghd_hybrid
    from repro.decomp.localbip import check_ghd_local_bip

    defaults = (
        MethodSpec(
            "hd", "DetKDecomp", HW, check_hd,
            monotone=True, decision_kind=HW, witness_kind="HD",
        ),
        # Table 3/4 order: GlobalBIP, LocalBIP, BalSep.
        MethodSpec(
            "globalbip", "GlobalBIP", GHW, check_ghd_global_bip,
            portfolio=True, monotone=True, decision_kind=GHW, witness_kind="GHD",
        ),
        MethodSpec(
            "localbip", "LocalBIP", GHW, check_ghd_local_bip,
            portfolio=True, monotone=True, decision_kind=GHW, witness_kind="GHD",
        ),
        MethodSpec(
            "balsep", "BalSep", GHW, check_ghd_balsep,
            portfolio=True, monotone=True, decision_kind=GHW, witness_kind="GHD",
        ),
        MethodSpec(
            "hybrid", "Hybrid", GHW, check_ghd_hybrid,
            monotone=True, decision_kind=GHW, witness_kind="GHD",
        ),
        # FracImproveHD reports fractional widths but decides ``hw ≤ k``
        # (it improves an HD that must exist first): its verdicts propagate
        # as hw evidence, while its FHD witnesses stay method-private.
        MethodSpec(
            "fracimprove", "FracImproveHD", FHW, check_frac_best,
            monotone=True, decision_kind=HW, witness_kind="FHD",
            witness_required=True,
        ),
        # Virtual: the cache key under which Table 4 race results are stored.
        MethodSpec(
            PORTFOLIO_KEY, "Portfolio", GHW, None,
            monotone=True, decision_kind=GHW, witness_kind="GHD",
        ),
    )
    for spec in defaults:
        _REGISTRY[spec.name] = spec


def register(spec: MethodSpec) -> MethodSpec:
    """Register (or replace) one method spec and return it."""
    _ensure_defaults()
    _REGISTRY[spec.name] = spec
    return spec


def register_check(name: str, check: Callable) -> MethodSpec:
    """Register a bare check function as an ad-hoc method.

    Exported as ``repro.engine.register_method``: experiments and tests
    inject custom callables this way.  A *fresh* name claims no width
    kind, so it never feeds or consumes the bounds index; overriding an
    existing name swaps only the check function and keeps the spec's
    metadata (kind, monotonicity, race eligibility) — the historical
    behaviour, where replacing ``CHECK_METHODS["balsep"]`` changed the
    dispatch target without silently dropping BalSep from the portfolio or
    the bounds index.
    """
    existing = get_optional(name)
    if existing is not None:
        return register(replace(existing, check=check))
    return register(MethodSpec(name=name, display=name, kind=None, check=check))


def get(name: str) -> MethodSpec:
    """The spec registered under ``name``; raises :class:`ReproError`."""
    _ensure_defaults()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown check method {name!r}; known: {method_names()}"
        ) from None


def get_optional(name: str) -> MethodSpec | None:
    """The spec registered under ``name``, or ``None``."""
    _ensure_defaults()
    return _REGISTRY.get(name)


def resolve(method: str | Callable) -> Callable:
    """Map a registry name to its check function (callables pass through)."""
    if callable(method):
        return method
    spec = get(method)
    if spec.check is None:
        raise ReproError(
            f"method {method!r} is a virtual cache key, not a dispatchable "
            "algorithm"
        )
    return spec.check


def specs() -> tuple[MethodSpec, ...]:
    """All registered specs, in registration order."""
    _ensure_defaults()
    return tuple(_REGISTRY.values())


def method_names() -> list[str]:
    """Sorted names of the dispatchable methods (what the CLI lists)."""
    return sorted(spec.name for spec in specs() if spec.dispatchable)


def portfolio_methods() -> dict[str, str]:
    """``display name → registry name`` of the raced methods (Table order)."""
    return {s.display: s.name for s in specs() if s.portfolio and s.dispatchable}


def monotone_names() -> frozenset[str]:
    """Names of the methods whose verdicts feed the bounds index."""
    return frozenset(s.name for s in specs() if s.monotone)


def decision_kind_of(name: str) -> str | None:
    """The width kind method ``name`` decides, or ``None`` when unknown."""
    spec = get_optional(name)
    return spec.decision_kind if spec is not None else None


class _CheckMethodsView(Mapping):
    """Live ``name → check function`` view of the dispatchable methods.

    Backward-compatible stand-in for the old ``CHECK_METHODS`` dict: the
    CLI's ``--algorithm`` choices and existing imports keep working, while
    the registry stays the single source of truth.
    """

    def __getitem__(self, name: str) -> Callable:
        spec = get_optional(name)
        if spec is None or spec.check is None:
            raise KeyError(name)
        return spec.check

    def __iter__(self) -> Iterator[str]:
        return iter(s.name for s in specs() if s.dispatchable)

    def __len__(self) -> int:
        return sum(1 for s in specs() if s.dispatchable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CHECK_METHODS view: {sorted(self)}>"


#: Live mapping view over the registry (replaces the old bare dict).
CHECK_METHODS = _CheckMethodsView()
