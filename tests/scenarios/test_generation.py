"""Scenario synthesis: determinism, per-class behaviour, manifest round-trip."""

from __future__ import annotations

import pytest

from repro.formats.registry import get_format
from repro.lang.checker import compile_program
from repro.lang.trace import ErrorKind
from repro.lang.vm import VM
from repro.scenarios import (
    HARDNESS_DIMENSIONS,
    CorpusConfig,
    ScenarioCorpus,
    ScenarioError,
    generate_corpus,
    synthesize_pair,
)


def _run(application, data, format_name):
    spec = get_format(format_name)
    program = compile_program(application.source, name=application.full_name)
    return VM(program).run(data, field_map=spec.field_map(data))


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        first = generate_corpus(seed=3, pairs_per_class=2)
        second = generate_corpus(seed=3, pairs_per_class=2)
        assert [pair.case_id for pair in first] == [pair.case_id for pair in second]
        assert [pair.recipient.source for pair in first] == [
            pair.recipient.source for pair in second
        ]
        assert [pair.donor.source for pair in first] == [
            pair.donor.source for pair in second
        ]
        assert [pair.error_values for pair in first] == [
            pair.error_values for pair in second
        ]

    def test_different_seeds_differ(self):
        first = generate_corpus(seed=0, pairs_per_class=1)
        second = generate_corpus(seed=1, pairs_per_class=1)
        assert [pair.case_id for pair in first] != [pair.case_id for pair in second]

    def test_digest_is_content_addressed(self):
        pair = synthesize_pair(ErrorKind.DIVIDE_BY_ZERO, "png", index=0, seed=0)
        assert pair.case_id.endswith(pair.digest)
        assert pair.recipient.name.endswith(pair.digest)
        assert pair.donor.name.endswith(pair.digest)
        # full_name stays the bare name (version == digest suffix).
        assert pair.recipient.full_name == pair.recipient.name

    def test_index_distinguishes_pairs_of_one_class(self):
        corpus = generate_corpus(seed=0, pairs_per_class=3)
        assert len({pair.case_id for pair in corpus}) == len(corpus)


class TestGeneratedBehaviour:
    @pytest.mark.parametrize("kind", list(ErrorKind))
    def test_recipient_errs_and_donor_survives(self, kind):
        corpus = generate_corpus(seed=0, pairs_per_class=1, error_kinds=(kind,))
        (pair,) = corpus.pairs
        seed, error = pair.seed_input(), pair.error_input()

        seed_run = _run(pair.recipient, seed, pair.format_name)
        assert seed_run.accepted, "recipient must process the seed input"

        error_run = _run(pair.recipient, error, pair.format_name)
        assert error_run.crashed
        assert error_run.error.kind is kind
        assert error_run.error.function == pair.target().site_function

        assert _run(pair.donor, seed, pair.format_name).ok
        assert _run(pair.donor, error, pair.format_name).ok, (
            "the donor's protective check must reject the error input cleanly"
        )

    def test_pair_reads_shared_format_fields(self):
        pair = synthesize_pair(ErrorKind.OUT_OF_BOUNDS_WRITE, "gif", index=0, seed=0)
        assert pair.recipient.formats == pair.donor.formats == ("gif",)
        assert all(path.startswith("/") for path in pair.defect_fields)
        spec = get_format("gif")
        layout = spec.field_map(spec.build())
        for path in pair.defect_fields:
            assert layout.has_field(path)

    def test_unsuitable_format_is_rejected(self):
        # dcp has a single wide field in the benign window; the overflow
        # template needs two.
        with pytest.raises(ScenarioError):
            synthesize_pair(ErrorKind.INTEGER_OVERFLOW, "dcp", index=0, seed=0)


class TestMutationDimension:
    def test_seed_whose_fuzzers_first_crash_otherwise_still_generates(self):
        # At seed 1 every format's fuzzer for the second integer-overflow
        # mutation pair first hits the out-of-bounds store the wrapped
        # product causes; the generator must fuzz on to the overflow.
        corpus = generate_corpus(
            seed=1, pairs_per_class=8, hardness=HARDNESS_DIMENSIONS
        )
        assert len(corpus) == len(ErrorKind) * 8 * len(HARDNESS_DIMENSIONS)
        overflows = [
            pair
            for pair in corpus.by_hardness()["mutation"]
            if pair.error_kind is ErrorKind.INTEGER_OVERFLOW
        ]
        assert len(overflows) == 8
        for pair in overflows:
            error_run = _run(pair.recipient, pair.error_input(), pair.format_name)
            assert error_run.crashed
            assert error_run.error.kind is ErrorKind.INTEGER_OVERFLOW
            assert _run(pair.donor, pair.error_input(), pair.format_name).ok


class TestManifest:
    def test_round_trip(self, tmp_path):
        corpus = generate_corpus(seed=2, pairs_per_class=2)
        path = corpus.save(tmp_path / "scenarios.json")
        loaded = ScenarioCorpus.load(path)
        assert loaded.config == corpus.config
        assert loaded.pairs == corpus.pairs

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ScenarioError):
            ScenarioCorpus.load(tmp_path / "nope.json")

    def test_unknown_case_lookup(self):
        corpus = generate_corpus(seed=0, pairs_per_class=1)
        with pytest.raises(ScenarioError):
            corpus.pair("gen-unknown-case")

    def test_config_round_trip(self):
        config = CorpusConfig(
            seed=9,
            pairs_per_class=3,
            error_kinds=(ErrorKind.DIVIDE_BY_ZERO,),
            formats=("png", "gif"),
        )
        assert CorpusConfig.from_dict(config.to_dict()) == config

    def test_kind_maps(self):
        corpus = generate_corpus(seed=0, pairs_per_class=1)
        by_case = corpus.kind_of_case()
        by_recipient = corpus.kind_of_recipient()
        for pair in corpus:
            assert by_case[pair.case_id] == pair.error_kind.value
            assert by_recipient[pair.recipient.full_name] == pair.error_kind.value
