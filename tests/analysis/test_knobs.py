"""The env-knob registry and the call sites migrated onto it."""

import pytest

from repro.analysis import knobs


class TestRegistry:
    def test_registered_knobs(self):
        names = [knob.name for knob in knobs.all_knobs()]
        assert names == ["ilp_encoder"]

    def test_all_knobs_is_sorted(self):
        names = [knob.name for knob in knobs.all_knobs()]
        assert names == sorted(names)

    def test_lookup_by_env_var(self):
        assert knobs.by_env("REPRO_ILP_ENCODER").name == "ilp_encoder"
        assert knobs.by_env("REPRO_NO_SUCH_KNOB") is None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="ilp_encoder"):
            knobs.register("ilp_encoder", "REPRO_ILP_ENCODER_2", "", "dup", "tests")
        with pytest.raises(ValueError, match="REPRO_ILP_ENCODER"):
            knobs.register("ilp_encoder_2", "REPRO_ILP_ENCODER", "", "dup", "tests")

    def test_unknown_knob_raises(self):
        with pytest.raises(KeyError):
            knobs.get("no_such_knob")
        with pytest.raises(KeyError):
            knobs.read("no_such_knob")

    def test_read_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ILP_ENCODER", raising=False)
        assert knobs.read("ilp_encoder") == "compiled"
        monkeypatch.setenv("REPRO_ILP_ENCODER", "tree")
        assert knobs.read("ilp_encoder") == "tree"

    def test_knob_table_lists_every_env_var(self):
        table = knobs.knob_table()
        for knob in knobs.all_knobs():
            assert knob.env_var in table
            assert knob.default in table


class TestMigratedResolvers:
    """resolve_ilp_encoder keeps its pre-registry semantics, now reading
    through knobs.read()."""

    def test_resolve_ilp_encoder_env(self, monkeypatch):
        from repro.ilp.encode import resolve_ilp_encoder

        monkeypatch.setenv("REPRO_ILP_ENCODER", "tree")
        assert resolve_ilp_encoder(None) == "tree"
        monkeypatch.setenv("REPRO_ILP_ENCODER", "")
        assert resolve_ilp_encoder(None) == "compiled"
        monkeypatch.delenv("REPRO_ILP_ENCODER")
        assert resolve_ilp_encoder("tree") == "tree"

    def test_env_var_aliases_preserved(self):
        # The pre-registry module constant stays importable (used by tests
        # and external scripts).
        from repro.ilp.encode import ENCODER_ENV_VAR

        assert ENCODER_ENV_VAR == "REPRO_ILP_ENCODER"


class TestKnobDocs:
    def test_every_knob_documented_in_repo(self, repo_root):
        from repro.analysis.rules import check_knob_docs

        assert check_knob_docs(repo_root) == []

    def test_undocumented_knob_is_flagged(self, tmp_path):
        from repro.analysis.rules import check_knob_docs

        (tmp_path / "README.md").write_text("no knobs documented here\n")
        found = check_knob_docs(tmp_path)
        assert len(found) == len(knobs.all_knobs())
        assert all(f.rule == "KNOB001" for f in found)

    def test_no_docs_corpus_opts_out(self, tmp_path):
        from repro.analysis.rules import check_knob_docs

        assert check_knob_docs(tmp_path) == []
