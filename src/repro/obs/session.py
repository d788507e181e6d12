"""One observed run: enable, stream, finish with a manifest.

:class:`RunSession` is the glue every entry point (CLI commands, the
benchmark harness, CI's tier-1 run) uses: it installs a fresh
observability state, attaches the requested sinks, and on
:meth:`~RunSession.finish` builds the manifest, writes it as the final
JSONL line, closes the sinks and restores whatever state was active
before — so sessions nest safely and a crashed run still leaves a
readable (partial) run file behind.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ObservabilityError
from repro.obs import runtime
from repro.obs.clock import wall_time
from repro.obs.sinks import JsonlSink, build_manifest, span_event
from repro.obs.tracer import SpanRecord

#: Verbose narration only describes phases this deep; leaf spans inside
#: tight loops stay silent.
_VERBOSE_MAX_DEPTH = 1


def git_revision(cwd: str | Path | None = None) -> str | None:
    """``git describe --always --dirty`` of *cwd*, or ``None``."""
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def format_duration(seconds: float) -> str:
    """Human-scaled rendering: µs under 1 ms, ms under 1 s, else s."""
    if seconds < 0.001:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


class RunSession:
    """Observability scope for one command/benchmark/test run."""

    def __init__(
        self,
        command: str,
        config: Mapping[str, Any] | None = None,
        metrics_out: str | Path | None = None,
        trace_out: str | Path | None = None,
        verbose: bool = False,
        with_git: bool = True,
    ) -> None:
        self.command = command
        self.config = dict(config) if config else {}
        self.manifest: dict[str, Any] | None = None
        self._verbose = verbose
        self._with_git = with_git
        self._previous = runtime.current()
        self.state = runtime.enable()
        self._metrics_sink = (
            JsonlSink(metrics_out) if metrics_out is not None else None
        )
        self._trace_sink = (
            JsonlSink(trace_out) if trace_out is not None else None
        )
        if self._metrics_sink or self._trace_sink or verbose:
            self.state.tracer.add_listener(self._on_span_end)

    # ------------------------------------------------------------------
    # Span streaming
    # ------------------------------------------------------------------

    def _on_span_end(self, record: SpanRecord, depth: int) -> None:
        # A sink that died mid-run stays closed; skipping it here (the
        # listener fires from span `finally` blocks) keeps a secondary
        # "sink is closed" error from masking whatever exception is
        # already unwinding — the write failure that killed the sink
        # surfaced once, at the emit that failed.
        event = None
        if self._metrics_sink is not None and not self._metrics_sink.closed:
            event = span_event(record, depth)
            self._metrics_sink.emit(event)
        if self._trace_sink is not None and not self._trace_sink.closed:
            self._trace_sink.emit(
                event if event is not None else span_event(record, depth)
            )
        if self._verbose and depth <= _VERBOSE_MAX_DEPTH:
            indent = "  " * depth
            # A batch task names itself, so -v narrates grid progress.
            key = record.attributes.get("key")
            label = record.name if key is None else f"{record.name} {key}"
            suffix = f" [{record.error}]" if record.error else ""
            print(
                f"[obs] {indent}{label}: "
                f"{format_duration(record.duration)}{suffix}",
                file=sys.stderr,
            )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def finish(self) -> dict[str, Any]:
        """Build the manifest, flush sinks, restore the previous state.

        Idempotent: a second call returns the same manifest without
        re-writing anything.
        """
        if self.manifest is not None:
            return self.manifest
        manifest = build_manifest(
            command=self.command,
            state=self.state,
            config=self.config,
            git=git_revision() if self._with_git else None,
            unix_time=wall_time(),
        )
        if self._metrics_sink is not None:
            try:
                self._metrics_sink.emit(manifest)
            except ObservabilityError:
                # A sink that died mid-run (failed disk, injected io
                # fault) cannot take the final line; the run file is
                # left torn, which the lenient readers tolerate.
                pass
            self._metrics_sink.close()
        if self._trace_sink is not None:
            self._trace_sink.close()
        if runtime.current() is self.state:
            runtime.restore(self._previous)
        self.manifest = manifest
        return manifest

    def abort(self) -> None:
        """Power-cut teardown: close sinks *without* the manifest line.

        The chaos campaign calls this after a simulated crash — a real
        power cut writes nothing further, so the run file must keep
        whatever torn tail the crash left.  Restores the previous
        runtime state like :meth:`finish` but never builds or emits a
        manifest; :attr:`manifest` stays ``None``.
        """
        if self._metrics_sink is not None:
            self._metrics_sink.close()
        if self._trace_sink is not None:
            self._trace_sink.close()
        if runtime.current() is self.state:
            runtime.restore(self._previous)

    def __enter__(self) -> "RunSession":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.finish()
        return False
