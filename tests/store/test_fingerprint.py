"""Cache-key stability: same inputs → same digest, forever.

The store is only sound if fingerprints are deterministic across
processes and sessions, and only *useful* if every input that can
change an artifact also changes its digest.  The golden literals here
pin the canonical form: if one of these tests starts failing, the key
schema changed and every existing cache directory silently became
unreachable — bump the matching :data:`BUILDER_SALTS` entry instead.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import asdict, fields, replace

import pytest

from repro.errors import StoreError
from repro.store.fingerprint import (
    BUILDER_SALTS,
    artifact_digest,
    builder_salt,
    canonical_json,
    fingerprint,
    trace_content_fingerprint,
    trg_key,
)
from repro.trace.callgraph import CallGraphParams
from repro.trace.generator import TraceInput, trace_key

GOLDEN_KEY = {
    "trace": "a" * 64,
    "cache": [8192, 32, 1],
    "chunk_size": 256,
    "popular": ["f", "g"],
    "q_multiplier": 2,
}
GOLDEN_DIGEST = (
    "06263ca65923fe7d5e54782e6d329d7199269f7c2a06a8866357a216f9d2d4d4"
)


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_compact_sorted_form(self):
        assert (
            canonical_json({"b": 1, "a": [1.5, None, True]})
            == '{"a":[1.5,null,true],"b":1}'
        )

    def test_nan_is_rejected(self):
        with pytest.raises(StoreError):
            canonical_json({"x": float("nan")})

    def test_unserialisable_payload_is_rejected(self):
        with pytest.raises(StoreError):
            canonical_json({"x": object()})


class TestArtifactDigest:
    def test_golden_digest(self):
        """The literal digest for a fixed key — pins the key schema."""
        assert artifact_digest("trg", GOLDEN_KEY) == GOLDEN_DIGEST

    def test_stable_across_processes(self):
        """A fresh interpreter computes the identical digest."""
        script = (
            "from repro.store.fingerprint import artifact_digest\n"
            f"key = {GOLDEN_KEY!r}\n"
            "print(artifact_digest('trg', key))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == GOLDEN_DIGEST

    def test_salt_bump_invalidates(self, monkeypatch):
        """Bumping a builder salt changes every digest of that kind."""
        before = artifact_digest("trg", GOLDEN_KEY)
        monkeypatch.setitem(BUILDER_SALTS, "trg", BUILDER_SALTS["trg"] + 1)
        assert artifact_digest("trg", GOLDEN_KEY) != before

    def test_kind_is_part_of_the_digest(self):
        assert artifact_digest("trg", {"trace": "x"}) != artifact_digest(
            "trace", {"trace": "x"}
        )

    def test_unknown_kind_is_an_error(self):
        with pytest.raises(StoreError):
            builder_salt("layout")
        with pytest.raises(StoreError):
            artifact_digest("layout", {})


class TestKeyComponents:
    def test_trg_key_sorts_popular(self, paper_cache):
        a = trg_key("t", paper_cache, 256, {"b", "a"}, 2)
        b = trg_key("t", paper_cache, 256, {"a", "b"}, 2)
        assert a == b
        assert a["popular"] == ["a", "b"]

    def test_trg_key_none_popular_is_distinct(self, paper_cache):
        assert trg_key("t", paper_cache, 256, None, 2) != trg_key(
            "t", paper_cache, 256, set(), 2
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda k: k.update(trace="b" * 64),
            lambda k: k.update(cache=[16384, 32, 1]),
            lambda k: k.update(chunk_size=128),
            lambda k: k.update(popular=["f"]),
            lambda k: k.update(q_multiplier=4),
        ],
    )
    def test_every_key_field_feeds_the_digest(self, mutate):
        key = dict(GOLDEN_KEY)
        mutate(key)
        assert artifact_digest("trg", key) != GOLDEN_DIGEST


def _changed(value):
    """A different valid value for one recipe field."""
    if value is None:
        return 800
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, float):
        return value / 2
    return value + 1


RECIPE_PARAMS = CallGraphParams(n_procedures=60, hot_procedures=12, seed=9)
RECIPE_INPUT = TraceInput("train", seed=5, target_events=2000)


class TestTraceFingerprints:
    def test_trace_key_reflects_graph_and_input(self, tiny_workload):
        params = tiny_workload.graph_params
        key = trace_key(params, tiny_workload.train)
        assert key == {
            "recipe": asdict(params),
            "input": asdict(tiny_workload.train),
        }
        assert trace_key(params, tiny_workload.test) != key

    def test_equal_recipes_give_equal_keys(self):
        """Separately built, equal parameters key identically."""
        assert trace_key(
            CallGraphParams(n_procedures=60, hot_procedures=12, seed=9),
            TraceInput("train", seed=5, target_events=2000),
        ) == trace_key(RECIPE_PARAMS, RECIPE_INPUT)

    @pytest.mark.parametrize(
        "which, field",
        [("params", f.name) for f in fields(CallGraphParams)]
        + [("input", f.name) for f in fields(TraceInput)],
    )
    def test_every_recipe_field_changes_the_key(self, which, field):
        params, inp = RECIPE_PARAMS, RECIPE_INPUT
        if which == "params":
            params = replace(params, **{field: _changed(getattr(params, field))})
        else:
            inp = replace(inp, **{field: _changed(getattr(inp, field))})
        assert artifact_digest("trace", trace_key(params, inp)) != (
            artifact_digest("trace", trace_key(RECIPE_PARAMS, RECIPE_INPUT))
        )

    def test_trace_key_digest_is_pinned(self):
        """The store digest of a fixed recipe: pins the key schema, so
        a change to it is caught here rather than as silent misses."""
        assert artifact_digest(
            "trace", trace_key(RECIPE_PARAMS, RECIPE_INPUT)
        ) == (
            "741e565a65be71ac86edbe26ea28999e0a863054f913d9dec343ebbb154f2035"
        )

    def test_content_fingerprint_matches_equal_traces(self, tiny_workload):
        train = tiny_workload.trace("train")
        test = tiny_workload.trace("test")
        assert trace_content_fingerprint(
            train
        ) == trace_content_fingerprint(train)
        assert trace_content_fingerprint(
            train
        ) != trace_content_fingerprint(test)

    def test_fingerprint_of_non_dict_payloads(self):
        assert fingerprint([1, 2]) != fingerprint([2, 1])
