"""Tests for artifact serialisation."""

import io
import json

import numpy as np
import pytest

from repro.io import (
    SerializationError,
    atomic_write_bytes,
    atomic_write_text,
    atomic_writer,
    graph_from_dict,
    graph_to_dict,
    layout_from_dict,
    layout_to_dict,
    load_graph,
    load_layout,
    load_program,
    load_trace,
    program_from_dict,
    program_to_dict,
    save_graph,
    save_layout,
    save_program,
    save_trace,
)
from repro.profiles.graph import WeightedGraph
from repro.program.layout import Layout
from repro.program.procedure import ChunkId
from repro.program.program import Program
from repro.trace.events import TraceEvent
from repro.trace.trace import Trace


@pytest.fixture
def program() -> Program:
    return Program.from_sizes({"a": 100, "b": 250})


class TestProgramRoundtrip:
    def test_roundtrip(self, program, tmp_path):
        path = tmp_path / "program.json"
        save_program(program, path)
        assert load_program(path) == program

    def test_preserves_order(self, tmp_path):
        program = Program.from_sizes({"z": 1, "a": 2, "m": 3})
        path = tmp_path / "program.json"
        save_program(program, path)
        assert load_program(path).names == ("z", "a", "m")

    def test_deterministic_output(self, program, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_program(program, p1)
        save_program(program, p2)
        assert p1.read_text() == p2.read_text()

    def test_wrong_format_rejected(self):
        with pytest.raises(SerializationError):
            program_from_dict({"format": "repro/layout", "version": 1})

    def test_wrong_version_rejected(self, program):
        data = program_to_dict(program)
        data["version"] = 99
        with pytest.raises(SerializationError):
            program_from_dict(data)

    def test_malformed_rejected(self):
        with pytest.raises(SerializationError):
            program_from_dict(
                {
                    "format": "repro/program",
                    "version": 1,
                    "procedures": [{"nom": "a"}],
                }
            )


class TestLayoutRoundtrip:
    def test_roundtrip(self, program, tmp_path):
        layout = Layout(program, {"a": 64, "b": 1000})
        path = tmp_path / "layout.json"
        save_layout(layout, path)
        assert load_layout(path) == layout

    def test_invalid_layout_file_rejected(self, program, tmp_path):
        data = layout_to_dict(Layout.default(program))
        data["addresses"]["b"] = 10  # overlaps a
        with pytest.raises(Exception):
            layout_from_dict(data)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(SerializationError):
            load_layout(path)

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_layout(path)


class TestTraceRoundtrip:
    def test_roundtrip(self, program, tmp_path):
        trace = Trace(
            program,
            [
                TraceEvent.full("a", 100),
                TraceEvent("b", 50, 100),
                TraceEvent.full("a", 100),
            ],
        )
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert list(loaded) == list(trace)
        assert loaded.program == program

    def test_empty_trace(self, program, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(Trace(program, []), path)
        assert len(load_trace(path)) == 0

    def test_wrong_file_rejected(self, tmp_path):
        path = tmp_path / "trace.npz"
        path.write_bytes(b"garbage")
        with pytest.raises(SerializationError):
            load_trace(path)


def _trace_blob(program: Program, **arrays) -> bytes:
    """A ``repro/trace`` archive of one event of ``a``, with arrays
    replaced by *arrays*."""
    from repro.io import write_npz, write_trace_npz

    buffer = io.BytesIO()
    write_trace_npz(Trace(program, [TraceEvent("a", 0, 8)]), buffer)
    with np.load(io.BytesIO(buffer.getvalue())) as archive:
        contents = {name: archive[name] for name in archive.files}
    form, version = str(contents.pop("format")), int(contents.pop("version"))
    contents.update({name: np.asarray(v) for name, v in arrays.items()})
    out = io.BytesIO()
    write_npz(out, form, version, contents)
    return out.getvalue()


#: Event arrays a cast would once have turned into a valid trace.
MALFORMED_TRACE_ARRAYS = {
    "procs-wraps-int32": {"procs": [2**32 + 1]},
    "procs-uint64-wraps": {"procs": np.array([2**32 + 1], dtype=np.uint64)},
    "float-starts": {"starts": [0.9]},
    "float-lengths": {"lengths": [4.7]},
    "procs-2d": {"procs": [[0]]},
    "bool-procs": {"procs": [True]},
}


class TestMalformedTraceArrays:
    def test_unchanged_blob_decodes(self, program):
        from repro.io import read_trace_npz

        trace = read_trace_npz(io.BytesIO(_trace_blob(program)))
        assert list(trace) == [TraceEvent("a", 0, 8)]

    @pytest.mark.parametrize("case", sorted(MALFORMED_TRACE_ARRAYS))
    @pytest.mark.parametrize("entry", ["read_trace_npz", "upload_trace"])
    def test_rejected(self, program, tmp_path, entry, case):
        from repro.errors import ReproError
        from repro.io import read_trace_npz
        from repro.serve import PlacementService, status_for
        from repro.store import ArtifactStore

        data = _trace_blob(program, **MALFORMED_TRACE_ARRAYS[case])
        store = ArtifactStore(tmp_path / "s")
        with pytest.raises(ReproError) as caught:
            if entry == "read_trace_npz":
                read_trace_npz(io.BytesIO(data))
            else:
                PlacementService(store).upload_trace(data)
        assert status_for(caught.value) == 400
        assert store.stats()["entries"] == 0


class TestGraphRoundtrip:
    def test_string_nodes(self, tmp_path):
        graph = WeightedGraph()
        graph.add_edge("a", "b", 3.5)
        graph.add_node("isolated")
        path = tmp_path / "graph.json"
        save_graph(graph, path)
        assert load_graph(path) == graph

    def test_chunk_nodes(self, tmp_path):
        graph = WeightedGraph()
        graph.add_edge(ChunkId("f", 0), ChunkId("g", 2), 7.0)
        path = tmp_path / "trg.json"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.weight(ChunkId("f", 0), ChunkId("g", 2)) == 7.0

    def test_deterministic_regardless_of_insertion(self, tmp_path):
        g1 = WeightedGraph()
        g1.add_edge("a", "b", 1.0)
        g1.add_edge("c", "d", 2.0)
        g2 = WeightedGraph()
        g2.add_edge("d", "c", 2.0)
        g2.add_edge("b", "a", 1.0)
        assert json.dumps(graph_to_dict(g1)) == json.dumps(
            graph_to_dict(g2)
        )

    def test_malformed_node_rejected(self):
        with pytest.raises(SerializationError):
            graph_from_dict(
                {
                    "format": "repro/graph",
                    "version": 1,
                    "nodes": [123],
                    "edges": [],
                }
            )

    def test_malformed_chunk_rejected(self):
        with pytest.raises(SerializationError):
            graph_from_dict(
                {
                    "format": "repro/graph",
                    "version": 1,
                    "nodes": [{"proc": "x"}],
                    "edges": [],
                }
            )


class TestAtomicWrites:
    def test_text_roundtrip(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_bytes_roundtrip(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_kill_mid_write_leaves_previous_artifact(self, tmp_path):
        """A process dying inside a write must leave the old file —
        never a truncated new one."""
        from repro.errors import SimulatedKill

        path = tmp_path / "out.txt"
        path.write_text("previous contents")
        with pytest.raises(SimulatedKill):
            with atomic_writer(path) as handle:
                handle.write("half of the new con")
                raise SimulatedKill("power loss mid-write")
        assert path.read_text() == "previous contents"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_kill_mid_write_leaves_no_new_artifact(self, tmp_path):
        from repro.errors import SimulatedKill

        path = tmp_path / "fresh.txt"
        with pytest.raises(SimulatedKill):
            with atomic_writer(path) as handle:
                handle.write("torn")
                raise SimulatedKill
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_save_layout_survives_injected_kill(self, program, tmp_path):
        """Killing an artifact save through the fault harness keeps
        the previous layout readable."""
        from repro.runner import BatchRunner, FaultPlan, Injection
        from repro.runner.tasks import Batch, TaskSpec

        old = Layout.default(program)
        path = tmp_path / "layout.json"
        save_layout(old, path)
        plan = FaultPlan(
            [Injection("runner.artifact", error="kill", task="t:1")]
        )
        batch = Batch(
            command="test",
            grid_id="g",
            tasks=(
                TaskSpec(
                    key="t:1",
                    kind="unit",
                    run=lambda env: {"v": 1},
                    artifact="layout.json",
                ),
            ),
            render=lambda results: "",
        )
        from repro.errors import SimulatedKill

        with pytest.raises(SimulatedKill):
            BatchRunner(batch, tmp_path, plan=plan).run()
        assert load_layout(path) == old

    def test_unsupported_mode_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            with atomic_writer(tmp_path / "x", "a"):
                pass


class TestReaderErrorMessages:
    """Truncated/corrupt artifacts fail with the path and the artifact
    kind that was expected there."""

    def test_truncated_npz_names_path_and_kind(self, program, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(Trace(program, [TraceEvent.full("a", 100)]), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SerializationError) as excinfo:
            load_trace(path)
        assert "trace.npz" in str(excinfo.value)
        assert "trace" in str(excinfo.value)

    def test_truncated_json_names_path_and_kind(self, program, tmp_path):
        path = tmp_path / "layout.json"
        save_layout(Layout.default(program), path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(SerializationError) as excinfo:
            load_layout(path)
        assert "layout.json" in str(excinfo.value)
        assert "layout" in str(excinfo.value)

    def test_missing_npz_key_wrapped(self, program, tmp_path):
        import numpy as np

        path = tmp_path / "trace.npz"
        with open(path, "wb") as handle:
            np.savez_compressed(handle, wrong_key=np.zeros(3))
        with pytest.raises(SerializationError) as excinfo:
            load_trace(path)
        assert "trace.npz" in str(excinfo.value)

    def test_wrong_kind_json_names_expectation(self, program, tmp_path):
        path = tmp_path / "mislabeled.json"
        save_program(program, path)
        with pytest.raises(SerializationError) as excinfo:
            load_layout(path)
        assert "mislabeled.json" in str(excinfo.value)


class TestPipelineThroughFiles:
    def test_place_from_saved_artifacts(self, tmp_path):
        """Profile in one 'process', place in another, simulate in a
        third — communicating only through files."""
        from repro.cache.config import PAPER_CACHE
        from repro.cache.simulator import simulate
        from repro.core.gbsc import GBSCPlacement
        from repro.eval.experiment import build_context
        from repro.trace.callgraph import CallGraphParams, random_call_graph
        from repro.trace.generator import TraceInput, generate_trace

        graph = random_call_graph(
            CallGraphParams(n_procedures=40, hot_procedures=8, seed=5)
        )
        trace = generate_trace(
            graph, TraceInput("t", seed=1, target_events=4000)
        )
        trace_path = tmp_path / "trace.npz"
        save_trace(trace, trace_path)

        # "Second process": load, profile, place, save layout.
        loaded_trace = load_trace(trace_path)
        context = build_context(loaded_trace, PAPER_CACHE)
        layout = GBSCPlacement().place(context)
        layout_path = tmp_path / "layout.json"
        save_layout(layout, layout_path)

        # "Third process": load layout, simulate.
        loaded_layout = load_layout(layout_path)
        stats = simulate(loaded_layout, loaded_trace, PAPER_CACHE)
        assert stats == simulate(layout, trace, PAPER_CACHE)
