"""The execution backends of the simulated OpenCL platform and the one
table of engine names ``launch(engine=...)`` picks from.

Two backends run a kernel launch, bitwise-identical in buffer contents
and :class:`~repro.opencl.interp.Counters` on every launch they both
complete (``src/repro/opencl/ENGINES.md``):

* ``scalar`` — the per-work-item reference interpreter
  (:func:`repro.opencl.interp.run_groups`), the oracle;
* ``compiled`` — the compiled pipeline of
  :mod:`repro.opencl.simt_compile`, run by
  :func:`repro.opencl.simt.run_blocks` over blocks of at most
  ``MAX_LANES`` lanes.

Each has ``plan(parsed, kernel)`` and ``run(plan, ...)``, which writes
the buffers and merges the counters.  :data:`ENGINES` maps every engine
name to the one backend it runs; ``auto``, the default, is
``compiled``.  Nothing falls back to another backend: what the
compiled backend does not run is a typed error, and ``engine="scalar"``
runs it.

* :class:`CompileUnsupported` — a static refusal, raised by ``plan``
  (a form the plan's scan or typing walk refuses) or by ``run`` before
  it touches a buffer (buffers of an element kind the plan cannot
  type);
* :class:`~repro.opencl.simt.DataRace` — a cross-lane race noticed
  mid-launch.  OpenCL leaves a racy kernel's result undefined, and the
  buffers and counters are then unspecified.
"""

from __future__ import annotations

from repro.obs import metrics, span
from repro.opencl import simt, simt_compile
from repro.opencl.interp import ExecError, run_groups

__all__ = [
    "CompileUnsupported",
    "ENGINES",
    "LEDGER",
    "backend_names",
    "engine_backend",
    "engine_names",
    "execute",
    "get_backend",
]


class CompileUnsupported(ExecError):
    """Static refusal: the compiled backend does not run ``kernel``, for
    ``reason`` (the plan's scan or typing walk); the scalar engine
    does."""

    def __init__(self, kernel: str, reason: str):
        super().__init__(
            f"kernel {kernel!r} is not run by the compiled engine: {reason} "
            f"(engine=\"scalar\" runs it)"
        )
        self.reason = reason


class ScalarBackend:
    """The per-work-item reference interpreter."""

    name = "scalar"

    def plan(self, parsed, kernel):
        return None

    def run(self, plan, parsed, kernel, gsize, lsize, base_env,
            local_decls, counters) -> None:
        run_groups(
            parsed, kernel, gsize, lsize, base_env, local_decls, counters
        )


def _pipeline(entry, kernel):
    """A compiled pipeline, or its refusal reason raised."""
    if isinstance(entry, str):
        raise CompileUnsupported(kernel.name, entry)
    return entry


class CompiledBackend:
    """The compiled pipeline, in blocks of at most ``MAX_LANES`` lanes."""

    name = "compiled"

    def plan(self, parsed, kernel):
        return _pipeline(simt_compile.get_pipeline(parsed, kernel), kernel)

    def run(self, plan, parsed, kernel, gsize, lsize, base_env,
            local_decls, counters) -> None:
        # The launch's buffers may hold element kinds the plan was not
        # typed for; a refusal of those is raised before any write.
        pipeline = _pipeline(
            simt_compile.launch_pipeline(parsed, kernel, plan, base_env),
            kernel,
        )
        simt.run_blocks(
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

#: Engine name -> the backend it runs.
ENGINES = {
    "auto": "compiled",
    "compiled": "compiled",
    "scalar": "scalar",
    # Held for benchmarks/e2e, which launches engine="fused", until
    # ROADMAP item 1(b) drops that pin: auto's backend.
    "fused": "compiled",
}


class _NoDeclines:
    """Held for benchmarks/e2e, which counts declines around its
    launches as ``LEDGER.total()``, until ROADMAP item 1(b) drops that
    pin: no backend declines a launch to another, so there are none."""

    @staticmethod
    def total() -> int:
        return 0


LEDGER = _NoDeclines()


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


def engine_backend(engine: str) -> str:
    """The backend name ``engine`` runs; raises ``ValueError`` listing
    the valid engine names for unknown ones."""
    try:
        return ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown execution engine {engine!r}: valid engines are "
            f"{', '.join(engine_names())}"
        ) from None


def execute(engine: str, parsed, kernel, gsize, lsize, base_env,
            local_decls, counters) -> None:
    """Run one launch on the backend ``engine`` names.  ``base_env``
    maps parameter names to global
    :class:`~repro.opencl.interp.Pointer` values or scalars;
    ``local_decls`` are the kernel's ``local`` arrays; ``counters`` is
    merged into.  A refusal or a race propagates (module docstring)."""
    name = engine_backend(engine)
    backend = _BACKENDS[name]
    metrics.inc("launch.total")
    with span("plan", backend=name, engine=engine) as plan_span:
        try:
            plan = backend.plan(parsed, kernel)
        except CompileUnsupported as exc:
            plan_span.attrs["reason"] = exc.reason
            raise
    with span(
        "run", backend=name, engine=engine, kernel=kernel.name,
    ) as run_span:
        try:
            backend.run(
                plan, parsed, kernel, gsize, lsize, base_env, local_decls,
                counters,
            )
        except (CompileUnsupported, simt.DataRace) as exc:
            run_span.attrs["reason"] = str(exc)
            raise
    metrics.inc(f"launch.served.{name}")
