"""Tests for catalog files and golden fixture verification."""

import json

import pytest

from fano_enriques import catalog
from fano_enriques.catalog import (
    FORMAT_VERSION,
    GOLDEN_FILES,
    _candidate_row,
    _row_key,
    bundled_catalog,
    bundled_json,
    bundled_names,
    load_catalog,
    resolve_catalog,
    save_catalog,
)
from fano_enriques.errors import CatalogError
from fano_enriques.exact import Rational
from fano_enriques.gradedrings import Presentation
from fano_enriques.hilbert import FanoEnriquesData
from fano_enriques.orbifold import Basket
from fano_enriques.quotient import CoverRecord, QuotientCandidate
from fano_enriques.series import Bidegree

Y4 = CoverRecord("Y_{4} in P(1,1,1,1,1)", (1, 1, 1, 1, 1), (4,), Basket(), Rational(4))
Y5 = CoverRecord(
    "Y_{5} in P(1,1,1,1,2)", (1, 1, 1, 1, 2), (5,), Basket.parse("1/2(1,1,1)"), Rational(5, 2)
)

BUNDLED = (
    "covers_codim1.json",
    "covers_codim2.json",
    "covers_codim3.json",
    "quotients_codim1.json",
    "quotients_codim2.json",
    "quotients_codim3.json",
    "series_examples.json",
    "torsion_baskets.json",
)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog([Y4, Y5], path)
        assert load_catalog(path) == [Y4, Y5]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CatalogError, match="cannot read"):
            load_catalog(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CatalogError, match="invalid JSON"):
            load_catalog(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(CatalogError, match="JSON object"):
            load_catalog(path)

    def test_format_version_mismatch(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": "0", "entries": []}))
        with pytest.raises(CatalogError, match="format_version"):
            load_catalog(path)

    def test_missing_entries(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"format_version": FORMAT_VERSION}))
        with pytest.raises(CatalogError, match="entry list"):
            load_catalog(path)

    def test_problems_are_aggregated(self, tmp_path):
        bad1 = dict(Y4.to_json(), minusK3="5")
        bad2 = dict(Y5.to_json(), name="Y_{4} in P(1,1,1,1,1)")
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"format_version": FORMAT_VERSION, "entries": [bad1, bad2]})
        )
        with pytest.raises(CatalogError) as err:
            load_catalog(path)
        message = str(err.value)
        assert "model forces" in message
        assert "duplicate name" in message


class TestBundled:
    def test_expected_files_present(self):
        assert bundled_names() == sorted(BUNDLED)

    def test_covers_load_and_validate(self):
        for name in ("covers_codim1.json", "covers_codim2.json", "covers_codim3.json"):
            records = bundled_catalog(name)
            assert records, name
            assert len({r.name for r in records}) == len(records)

    def test_codim3_catalog_contains_pfaffians(self):
        records = bundled_catalog("covers_codim3.json")
        assert any(r.structure == "pfaffian" for r in records)
        assert all(r.codimension == 3 for r in records)

    def test_goldens_reference_their_catalogs(self):
        for name in GOLDEN_FILES:
            golden = bundled_json(name)
            assert golden["format_version"] == FORMAT_VERSION
            assert golden["catalog"] in BUNDLED
            assert golden["rows"], name

    def test_unknown_bundled_name(self):
        with pytest.raises(CatalogError, match="no bundled file"):
            bundled_json("missing.json")

    def test_bundled_files_match_writer_format(self):
        # goldens are regenerated byte for byte by the build script; make
        # sure nothing reformatted them by hand
        from fano_enriques import catalog

        for name in BUNDLED:
            raw = (catalog._data_root() / name).read_text()
            assert raw == json.dumps(json.loads(raw), indent=1) + "\n", name


class TestResolveCatalog:
    def test_path_takes_precedence(self, tmp_path):
        path = tmp_path / "local.json"
        save_catalog([Y4], path)
        assert resolve_catalog(str(path)) == [Y4]

    def test_falls_back_to_bundled(self):
        records = resolve_catalog("covers_codim1.json")
        assert any(r.name.startswith("Y_{4}") for r in records)


class TestRowKeys:
    def _row(self):
        data = FanoEnriquesData(
            5, Rational(1, 2), Basket.parse("1/10(1,3,7)_6, 2x1/5(1,2,3)_1")
        )
        pres = Presentation(
            tuple(Bidegree(n, i) for n, i in [(1, 0), (1, 1), (1, 3), (1, 4), (2, 2)]),
            (Bidegree(5, 0),),
            "clean",
        )
        return _candidate_row(QuotientCandidate(Y5, data, pres))

    def test_candidate_row_fields(self):
        row = self._row()
        assert row["cover"] == "Y_{5} in P(1,1,1,1,2)"
        assert row["r"] == 5
        assert row["minusK3"] == "1/2"
        assert row["generators"] == [[1, 0], [1, 1], [1, 3], [1, 4], [2, 2]]
        assert row["relations"] == [[5, 0]]
        assert row["flags"] == []

    def test_row_key_ignores_annotations(self):
        row = self._row()
        annotated = dict(row, label="1", notes="source row 1")
        assert _row_key(annotated) == _row_key(row)

    def test_row_key_sees_flags(self):
        row = self._row()
        flagged = dict(row, flags=["cross-codimension"])
        assert _row_key(flagged) != _row_key(row)


class TestGoldenComparison:
    def test_reports_every_kind_of_mismatch(self, monkeypatch):
        # a codim-3 golden that swaps its first clean row and its special
        # case for invented ones and names the dropped row's cover as a
        # decoy: each comparison reports both directions
        real = catalog.bundled_json
        golden = real("quotients_codim3.json")
        dropped, special = golden["rows"][0], golden["special_cases"][0]
        invented_row = dict(dropped, cover="Y_{row} in P(1,1,1,1,1,1,1)")
        invented_special = dict(special, cover="Y_{special} in P(1,1,1,1,1,1,1)", r=7)
        tampered = dict(
            golden,
            rows=golden["rows"][1:] + [invented_row],
            special_cases=[invented_special],
            decoys=golden["decoys"] + [{"cover": dropped["cover"], "reasons": []}],
        )
        monkeypatch.setattr(
            catalog,
            "bundled_json",
            lambda name: tampered if name == "quotients_codim3.json" else real(name),
        )
        assert catalog._verify_quotients("quotients_codim3.json") == [
            "quotients_codim3.json: missing expected row Y_{row} in P(1,1,1,1,1,1,1) r=2",
            "quotients_codim3.json: unexpected row Y_{2,2,2} in P(1,1,1,1,1,1,1) r=2",
            "quotients_codim3.json: missing special case Y_{special} in P(1,1,1,1,1,1,1) r=7",
            f"quotients_codim3.json: unexpected special case {special['cover']} r={special['r']}",
            "quotients_codim3.json: decoy Y_{2,2,2} in P(1,1,1,1,1,1,1) produced a clean row",
        ]
