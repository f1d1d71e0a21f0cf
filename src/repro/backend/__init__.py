"""The execution backends of the simulated OpenCL platform and the one
table of fallback chains ``launch(engine=...)`` picks from.

Two backends run a kernel launch, bitwise-identical in buffer contents
and :class:`~repro.opencl.interp.Counters` on every launch they both
complete (``src/repro/opencl/ENGINES.md``):

* ``scalar`` — the per-work-item reference interpreter
  (:func:`repro.opencl.interp.run_groups`), the oracle; never refuses;
* ``compiled`` — the compiled pipeline of
  :mod:`repro.opencl.simt_compile`, launched by
  :func:`repro.opencl.simt.try_launch` over blocks of at most
  ``MAX_LANES`` lanes.

Each has ``plan(parsed, kernel)``, which raises
:class:`CompileUnsupported` when it cannot run the kernel at all, and
``run(plan, ...)``, which writes the buffers and merges the counters.
``run`` may refuse too: with :class:`CompileUnsupported` before it
touches a buffer (buffers of an element kind the plan was not typed
for), or with :class:`~repro.opencl.simt.VectorUnsupported` after
rolling back what it wrote (a cross-lane race noticed mid-launch).

:data:`ENGINES` maps every engine name to its chain.  :func:`execute`
tries the members in order:

1. a refusal, static or dynamic, falls through to the next member;
2. an unexpected crash in ``plan`` is shielded for every member but the
   last (``plan`` precedes any buffer write, so falling through is
   exact); the last member re-raises it;
3. every decline lands in the degradation ledger
   (:mod:`repro.backend.ledger`) with its kind and reason;
4. a chain that does not end in ``scalar`` is *strict*: when every
   member refused, :class:`~repro.opencl.simt.VectorizationError` names
   each refusal.

``REPRO_SIM_ENGINE`` names a *preference*: :func:`resolve` with
``prefer=True`` gives a strict chain the ``scalar`` tail.
"""

from __future__ import annotations

from repro.backend import ledger
from repro.backend.ledger import LEDGER
from repro.obs import metrics, span
from repro.opencl import simt, simt_compile
from repro.opencl.interp import run_groups
from repro.opencl.simt import VectorizationError, VectorUnsupported

__all__ = [
    "CompileUnsupported",
    "ENGINES",
    "LEDGER",
    "backend_names",
    "engine_names",
    "execute",
    "get_backend",
    "ledger",
    "resolve",
]


class CompileUnsupported(Exception):
    """Static refusal: this backend cannot run the kernel (or this launch
    shape), try the next one.  The message is the reason the chain
    ledgers."""


class ScalarBackend:
    """The per-work-item reference interpreter; never refuses."""

    name = "scalar"

    def plan(self, parsed, kernel):
        return None

    def run(self, plan, parsed, kernel, gsize, lsize, base_env,
            local_decls, counters) -> None:
        run_groups(
            parsed, kernel, gsize, lsize, base_env, local_decls, counters
        )


def _pipeline(entry):
    """A compiled pipeline, or its refusal reason raised as a static
    decline."""
    if isinstance(entry, str):
        raise CompileUnsupported(entry)
    return entry


class CompiledBackend:
    """The compiled pipeline, in blocks of at most ``MAX_LANES`` lanes."""

    name = "compiled"

    def plan(self, parsed, kernel):
        return _pipeline(simt_compile.get_pipeline(parsed, kernel))

    def run(self, plan, parsed, kernel, gsize, lsize, base_env,
            local_decls, counters) -> None:
        # The launch's buffers may hold element kinds the plan was not
        # typed for; a refusal of those is raised before any write.
        pipeline = _pipeline(
            simt_compile.launch_pipeline(parsed, kernel, plan, base_env)
        )
        simt.try_launch(
            gsize, lsize, dict(base_env), local_decls, counters, pipeline
        )


_COMPILED = CompiledBackend()

_BACKENDS = {
    "compiled": _COMPILED,
    "scalar": ScalarBackend(),
    # Held for benchmarks/e2e, which plans through get_backend("fused"),
    # until ROADMAP item 1(b) drops that pin: the compiled backend.
    "fused": _COMPILED,
}

#: Engine name -> the backends it tries, in order.
ENGINES = {
    "auto": ("compiled", "scalar"),
    "compiled": ("compiled",),
    "scalar": ("scalar",),
    # Held for benchmarks/e2e, which launches engine="fused", until
    # ROADMAP item 1(b) drops that pin: auto's chain.
    "fused": ("compiled", "scalar"),
}


def get_backend(name: str):
    """Look a backend up by name; raises ``ValueError`` listing the
    valid names for unknown ones."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}: valid backends are "
            f"{', '.join(backend_names())}"
        ) from None


def backend_names() -> tuple:
    return tuple(sorted(_BACKENDS))


def engine_names() -> tuple:
    """Every name ``launch(engine=...)``/``REPRO_SIM_ENGINE`` accepts."""
    return tuple(sorted(ENGINES))


def resolve(name: str, prefer: bool = False) -> tuple:
    """The chain of backend names an engine name runs.

    ``prefer`` marks the name as a *preference* (the ``REPRO_SIM_ENGINE``
    path): a strict chain gains the ``scalar`` tail so the run never
    fails on kernels the preferred backend cannot execute.
    """
    try:
        chain = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown execution engine {name!r}: valid engines are "
            f"{', '.join(engine_names())}"
        ) from None
    if prefer and chain[-1] != "scalar":
        chain += ("scalar",)
    return chain


def execute(engine: str, chain: tuple, parsed, kernel, gsize, lsize,
            base_env, local_decls, counters) -> None:
    """Run one launch on the first backend of ``chain`` (what
    :func:`resolve` gave for ``engine``) that accepts it; see the module
    docstring for the rules.  ``base_env`` maps parameter names to
    global :class:`~repro.opencl.interp.Pointer` values or scalars;
    ``local_decls`` are the kernel's ``local`` arrays; ``counters`` is
    merged into only by the backend that serves the launch."""
    refusals = []
    metrics.inc("launch.total")
    for position, name in enumerate(chain):
        backend = _BACKENDS[name]
        final = position == len(chain) - 1
        try:
            with span("plan", backend=name, engine=engine) as plan_span:
                try:
                    plan = backend.plan(parsed, kernel)
                except CompileUnsupported as exc:
                    plan_span.attrs["reason"] = str(exc)
                    raise
        except CompileUnsupported as exc:
            ledger.record(engine, name, "static", str(exc))
            refusals.append(f"{name}: {exc}")
            continue
        except Exception as exc:
            # Crash shield: the crash is ledgered at every position;
            # the final member re-raises it.
            ledger.record(
                engine, name, "crash", f"{type(exc).__name__}: {exc}"
            )
            if final:
                raise
            refusals.append(f"{name}: crashed in plan ({type(exc).__name__})")
            continue
        with span(
            "run", backend=name, engine=engine, kernel=kernel.name,
        ) as run_span:
            try:
                backend.run(
                    plan, parsed, kernel, gsize, lsize, base_env,
                    local_decls, counters,
                )
            except (CompileUnsupported, VectorUnsupported) as exc:
                dynamic = isinstance(exc, VectorUnsupported)
                reason = f"{kernel.name}: {exc}" if dynamic else str(exc)
                run_span.attrs["reason"] = reason
            else:
                metrics.inc(f"launch.served.{name}")
                return
        ledger.record(engine, name, "dynamic" if dynamic else "static", reason)
        refusals.append(f"{name}: {reason}")
    kind = "strict engine" if chain[-1] != "scalar" else "engine"
    raise VectorizationError(
        f"kernel {kernel.name!r} not supported by {kind} {engine!r} "
        f"({'; '.join(refusals)})"
    )
