"""Composable access-pattern grammar for generated workloads.

A grammar *expression* is a small tree of primitives and combinators
that flattens into an ordered list of :class:`PhaseSpec` phases; each
phase names one of the existing :mod:`repro.workloads.generators`
families plus its parameters, and :func:`realize` lowers the whole
expression into a :class:`GeneratedSpec` — a
:class:`~repro.workloads.spec.BenchmarkSpec` subclass whose kernels run
back to back, one per phase, under the composite ``generated`` family.

Primitives (:class:`Prim`)
--------------------------
``sweep``
    Repeated passes over a shared hot working set (optionally mixed with
    a bypassing cold stream) — the miss-rate-cliff mechanism.
``frontier``
    Power-law (Zipf) references over a footprint with lognormal per-CTA
    work — graph frontiers with heavy-tailed degree, the imbalance
    mechanism for sub-linear scaling.
``stream``
    Private streaming through a footprint much larger than any cache —
    the linear, memory-intensive regime.
``tile``
    Small per-warp tiles reused many times with high compute intensity —
    the linear, compute-intensive regime.
``chase``
    Root-to-leaf walks over a shared tree; the hot top levels camp on
    few LLC slices.
``hotspot``
    A tiny, heavily contended shared region (atomics / reduction
    hot-spot proxy) mixed with cold one-shot traffic.

Combinators
-----------
:class:`Seq`
    Phased mixes: children's phases run back to back as separate
    kernels.
:class:`Repeat`
    ``times`` copies of a sub-expression's phases.
:class:`Ramp`
    Working-set ramps: ``steps`` copies with footprints multiplied by
    ``growth`` each step.
:class:`Burst`
    Bursty arrivals: shrinks the warp launch stagger (``lead_in``) so
    warps issue memory in near-lockstep request bursts.

Every expression serializes to/from canonical JSON
(:meth:`Expr.to_json` / :func:`expr_from_json`), and a realized spec is
deterministic in ``(grammar_expr, seed)``: the spec digest — and hence
the cache keys of every run made from it — is a content hash of the
canonical payload.  Degenerate parameters (zero-length phases, empty
footprints, non-positive Zipf exponents, CTA counts over the generator
clamp) raise :class:`~repro.exceptions.WorkloadError` naming the field
at *construction* time, not three layers deep in trace generation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.exceptions import WorkloadError
from repro.verify.digest import canonical_json
from repro.workloads.generators import MAX_CTAS
from repro.workloads.spec import BenchmarkSpec, KernelShape, ScalingBehavior

__all__ = [
    "Burst",
    "Expr",
    "GeneratedSpec",
    "PhaseSpec",
    "Prim",
    "Ramp",
    "Repeat",
    "Seq",
    "expr_from_json",
    "realize",
    "spec_from_payload",
]

#: Default warp launch stagger, matching the generators' default
#: (``max(900, 2 * cpa * apw)`` at their default cpa/apw); :class:`Burst`
#: scales it down toward lockstep.
_BASE_LEAD_IN = 900

#: Footprint-carrying parameter keys, scaled by :class:`Ramp`.
_FOOTPRINT_KEYS = ("fp_mb", "hot_mb")

#: Per-primitive parameter schema: ``name -> (default, validator)``.
#: A validator returns an error string (naming the expectation) or None.


def _positive(value: float) -> str:
    return "" if value > 0 else f"must be positive, got {value}"


def _non_negative(value: float) -> str:
    return "" if value >= 0 else f"must be >= 0, got {value}"


def _fraction(value: float) -> str:
    return "" if 0.0 <= value <= 1.0 else f"must be in [0, 1], got {value}"


def _at_least(minimum: float):
    def check(value: float) -> str:
        return "" if value >= minimum else f"must be >= {minimum}, got {value}"

    return check


_PRIMITIVES: Dict[str, Dict[str, tuple]] = {
    "sweep": {
        "hot_mb": (4.0, _positive),
        "cold_frac": (0.0, _fraction),
        "fp_mb": (0.0, _non_negative),  # 0 = derive as 4x hot_mb
        "l1_reuse": (2, _at_least(1)),
        "cpa": (10.0, _non_negative),
        "apw": (6, _at_least(2)),
    },
    "frontier": {
        "fp_mb": (12.0, _positive),
        "zipf_alpha": (0.9, _positive),
        "sigma": (0.5, _non_negative),
        "sigma_growth": (0.0, _non_negative),
        "cpa": (8.0, _non_negative),
        "apw": (9, _at_least(2)),
    },
    "stream": {
        "fp_mb": (64.0, _positive),
        "random": (0.0, _fraction),
        "cpa": (20.0, _non_negative),
        "apw": (7, _at_least(2)),
    },
    "tile": {
        "fp_mb": (32.0, _positive),
        "reps": (3, _at_least(1)),
        "cpa": (18.0, _non_negative),
        "apw": (16, _at_least(2)),
    },
    "chase": {
        "fp_mb": (16.0, _positive),
        "levels": (3, _at_least(2)),
        "sigma": (0.2, _non_negative),
        "cpa": (8.0, _non_negative),
        "apw": (9, _at_least(3)),
    },
    "hotspot": {
        "hot_lines": (256, _at_least(1)),
        "hot_frac": (0.35, _fraction),
        "zipf_alpha": (1.1, _positive),
        "fp_mb": (8.0, _positive),  # the cold side of the hot/cold mix
        "cpa": (6.0, _non_negative),
        "apw": (9, _at_least(2)),
    },
}

#: Grammar parameter -> generator-family parameter translation.  Keys
#: not listed pass through unchanged.
_PARAM_RENAMES = {"zipf_alpha": "zipf_exp"}

#: Primitive kind -> generator family.
_PRIM_FAMILIES = {
    "sweep": "sweep",
    "frontier": "irregular",
    "stream": "stream",
    "tile": "tiled",
    "chase": "chase",
    "hotspot": "hotcold",
}


@dataclass(frozen=True)
class PhaseSpec:
    """One flattened phase: a generator family plus its parameters.

    ``params`` holds *generator-facing* keys (already renamed, e.g.
    ``zipf_exp``) so :mod:`repro.workloads.generators` can consume them
    verbatim.
    """

    family: str
    params: Mapping[str, float] = field(default_factory=dict)

    def payload(self) -> dict:
        return {"family": self.family, "params": dict(sorted(self.params.items()))}


# --------------------------------------------------------------------------
# Expression nodes
# --------------------------------------------------------------------------

class Expr:
    """Base class for grammar expressions."""

    def phases(self) -> Tuple[PhaseSpec, ...]:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Prim(Expr):
    """A single-phase primitive; see module docstring for kinds."""

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        schema = _PRIMITIVES.get(self.kind)
        if schema is None:
            raise WorkloadError(
                f"grammar: unknown primitive {self.kind!r}; "
                f"expected one of {sorted(_PRIMITIVES)}"
            )
        for name, value in self.params.items():
            if name not in schema:
                raise WorkloadError(
                    f"{self.kind}.{name}: unknown parameter; "
                    f"expected one of {sorted(schema)}"
                )
            problem = schema[name][1](value)
            if problem:
                raise WorkloadError(f"{self.kind}.{name}: {problem}")

    def resolved(self) -> Dict[str, float]:
        """Parameters with defaults filled in, grammar-facing keys."""
        schema = _PRIMITIVES[self.kind]
        return {
            name: self.params.get(name, default)
            for name, (default, __) in schema.items()
        }

    def phases(self) -> Tuple[PhaseSpec, ...]:
        resolved = self.resolved()
        if self.kind == "sweep" and resolved["fp_mb"] <= 0.0:
            # The cold stream (when cold_frac > 0) walks the footprint
            # beyond the hot set; give it room by default.
            resolved["fp_mb"] = 4.0 * resolved["hot_mb"]
        params = {
            _PARAM_RENAMES.get(name, name): float(value)
            for name, value in resolved.items()
        }
        return (PhaseSpec(family=_PRIM_FAMILIES[self.kind], params=params),)

    def to_json(self) -> dict:
        return {"op": "prim", "kind": self.kind,
                "params": dict(sorted(self.params.items()))}


@dataclass(frozen=True)
class Seq(Expr):
    """Phased mix: children's phases back to back."""

    children: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise WorkloadError("seq.children: must not be empty")

    def phases(self) -> Tuple[PhaseSpec, ...]:
        out: Tuple[PhaseSpec, ...] = ()
        for child in self.children:
            out += child.phases()
        return out

    def to_json(self) -> dict:
        return {"op": "seq", "children": [c.to_json() for c in self.children]}


@dataclass(frozen=True)
class Repeat(Expr):
    """``times`` copies of the child's phases."""

    child: Expr
    times: int

    def __post_init__(self) -> None:
        if self.times < 1:
            raise WorkloadError(
                f"repeat.times: must be >= 1, got {self.times}"
            )

    def phases(self) -> Tuple[PhaseSpec, ...]:
        return self.child.phases() * self.times

    def to_json(self) -> dict:
        return {"op": "repeat", "times": self.times,
                "child": self.child.to_json()}


@dataclass(frozen=True)
class Ramp(Expr):
    """Working-set ramp: footprints grow by ``growth`` each step."""

    child: Expr
    steps: int
    growth: float

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise WorkloadError(f"ramp.steps: must be >= 1, got {self.steps}")
        if self.growth <= 0:
            raise WorkloadError(
                f"ramp.growth: must be positive, got {self.growth}"
            )

    def phases(self) -> Tuple[PhaseSpec, ...]:
        out = []
        base = self.child.phases()
        for step in range(self.steps):
            factor = self.growth ** step
            for phase in base:
                params = dict(phase.params)
                for key in _FOOTPRINT_KEYS:
                    if key in params:
                        params[key] = params[key] * factor
                out.append(PhaseSpec(family=phase.family, params=params))
        return tuple(out)

    def to_json(self) -> dict:
        return {"op": "ramp", "steps": self.steps, "growth": self.growth,
                "child": self.child.to_json()}


@dataclass(frozen=True)
class Burst(Expr):
    """Bursty arrivals: intensity 0 keeps the default stagger, 1 is
    full lockstep (every warp issues its first access together)."""

    child: Expr
    intensity: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.intensity <= 1.0:
            raise WorkloadError(
                f"burst.intensity: must be in [0, 1], got {self.intensity}"
            )

    def phases(self) -> Tuple[PhaseSpec, ...]:
        out = []
        for phase in self.child.phases():
            params = dict(phase.params)
            lead = params.get("lead_in", float(_BASE_LEAD_IN))
            params["lead_in"] = round(lead * (1.0 - self.intensity))
            out.append(PhaseSpec(family=phase.family, params=params))
        return tuple(out)

    def to_json(self) -> dict:
        return {"op": "burst", "intensity": self.intensity,
                "child": self.child.to_json()}


def expr_from_json(document: object) -> Expr:
    """Rebuild an expression from its :meth:`Expr.to_json` form."""
    if not isinstance(document, dict):
        raise WorkloadError(
            f"grammar: expected an object, got {type(document).__name__}"
        )
    op = document.get("op")
    if op == "prim":
        return Prim(document.get("kind", ""), dict(document.get("params", {})))
    if op == "seq":
        children = document.get("children")
        if not isinstance(children, list):
            raise WorkloadError("seq.children: expected a list")
        return Seq(tuple(expr_from_json(c) for c in children))
    if op == "repeat":
        return Repeat(expr_from_json(document.get("child")),
                      int(document.get("times", 0)))
    if op == "ramp":
        return Ramp(expr_from_json(document.get("child")),
                    int(document.get("steps", 0)),
                    float(document.get("growth", 0.0)))
    if op == "burst":
        return Burst(expr_from_json(document.get("child")),
                     float(document.get("intensity", -1.0)))
    raise WorkloadError(f"grammar: unknown op {op!r}")


# --------------------------------------------------------------------------
# Realization: expression -> GeneratedSpec
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratedSpec(BenchmarkSpec):
    """A grammar-generated workload, runnable anywhere a
    :class:`~repro.workloads.spec.BenchmarkSpec` is (cached runner,
    parallel prefetch, MRC collection).

    One kernel per phase; the ``generated`` family in
    :mod:`repro.workloads.generators` dispatches each kernel to its
    phase's underlying family.  ``abbr`` embeds the content digest of
    the realization payload, so two specs with different grammar
    expressions can never collide in the simulation cache.
    """

    phases: Tuple[PhaseSpec, ...] = ()
    grammar: str = ""  # canonical JSON of the source expression
    gen_seed: int = 0
    intent: str = ""   # intended scaling regime (self-declared)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.phases:
            raise WorkloadError(f"{self.abbr}: generated spec has no phases")
        if len(self.phases) != len(self.kernels):
            raise WorkloadError(
                f"{self.abbr}: {len(self.phases)} phases but "
                f"{len(self.kernels)} kernels (need one kernel per phase)"
            )

    @property
    def digest(self) -> str:
        """The content digest embedded in ``abbr``."""
        return self.abbr[1:]

    def payload(self) -> dict:
        """JSON form; :func:`spec_from_payload` round-trips it."""
        return {
            "grammar": json.loads(self.grammar),
            "seed": self.gen_seed,
            "intent": self.intent,
            "ctas_per_phase": [k.num_ctas for k in self.kernels],
            "threads_per_cta": self.kernels[0].threads_per_cta,
        }


def realize(
    expr: Expr,
    seed: int,
    intent: str,
    ctas_per_phase: int = 768,
    threads_per_cta: int = 128,
) -> GeneratedSpec:
    """Lower a grammar expression into a runnable :class:`GeneratedSpec`.

    The result is a pure function of every argument; its ``abbr`` is
    ``z<digest>`` over the canonical payload, so equal inputs yield
    bit-equal specs and distinct inputs yield distinct cache keys.
    ``intent`` is the regime the workload was *designed* to exhibit —
    the campaign driver compares it against the measured one.
    """
    try:
        behaviour = ScalingBehavior(intent)
    except ValueError:
        raise WorkloadError(
            f"intent: expected one of "
            f"{[b.value for b in ScalingBehavior]}, got {intent!r}"
        ) from None
    if not 1 <= ctas_per_phase <= MAX_CTAS:
        raise WorkloadError(
            f"ctas_per_phase: must be in [1, {MAX_CTAS}], got {ctas_per_phase}"
        )
    if threads_per_cta < 32:
        raise WorkloadError(
            f"threads_per_cta: must be >= 32, got {threads_per_cta}"
        )
    phases = expr.phases()
    if not phases:
        raise WorkloadError("grammar: expression yields zero phases")
    grammar_json = expr.to_json()
    payload = {
        "grammar": grammar_json,
        "seed": seed,
        "intent": intent,
        "ctas_per_phase": [ctas_per_phase] * len(phases),
        "threads_per_cta": threads_per_cta,
    }
    digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:12]
    footprint = max(
        (
            phase.params[key]
            for phase in phases
            for key in _FOOTPRINT_KEYS
            if key in phase.params
        ),
        default=1.0,
    )
    return GeneratedSpec(
        abbr=f"z{digest}",
        name=f"zoo:{intent}:{digest}",
        suite="zoo",
        footprint_mb=float(footprint),
        insns_m=0.0,
        kernels=tuple(
            KernelShape(num_ctas=ctas_per_phase, threads_per_cta=threads_per_cta)
            for __ in phases
        ),
        scaling=behaviour,
        family="generated",
        params={},
        phases=phases,
        grammar=canonical_json(grammar_json),
        gen_seed=seed,
        intent=intent,
    )


def spec_from_payload(payload: Mapping) -> GeneratedSpec:
    """Re-realize a spec from its :meth:`GeneratedSpec.payload` form.

    Raises :class:`~repro.exceptions.WorkloadError` on malformed input;
    a successful round-trip reproduces the original digest bit for bit.
    """
    try:
        expr = expr_from_json(payload["grammar"])
        ctas = payload["ctas_per_phase"]
        return realize(
            expr,
            seed=int(payload["seed"]),
            intent=str(payload["intent"]),
            ctas_per_phase=int(ctas[0]) if ctas else 0,
            threads_per_cta=int(payload["threads_per_cta"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise WorkloadError(f"malformed generated-spec payload: {error}") from None
