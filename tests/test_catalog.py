"""Tests for catalog files and golden fixture verification."""

import json

import pytest

from fano_enriques import catalog
from fano_enriques.catalog import (
    FORMAT_VERSION,
    GOLDEN_FILES,
    _row_key,
    bundled_catalog,
    bundled_json,
    candidate_row,
    load_catalog,
    resolve_catalog,
    save_catalog,
)
from fano_enriques.enumeration import MAX_TORSION, enumerate_bt
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

CENSUS = [c for r in range(2, MAX_TORSION + 1) for c in enumerate_bt(r)]

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

    def test_writes_the_bundled_layout(self, tmp_path):
        for name in ("covers_codim1.json", "covers_codim2.json", "covers_codim3.json"):
            path = tmp_path / name
            save_catalog(bundled_catalog(name), path)
            assert path.read_text() == (catalog._data_root() / name).read_text()

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
        shipped = [e.name for e in catalog._data_root().iterdir() if e.name.endswith(".json")]
        assert sorted(shipped) == sorted(BUNDLED)

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
        return candidate_row(QuotientCandidate(Y5, data, pres))

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
    def _tamper(self, monkeypatch, name, tampered):
        real = catalog.bundled_json
        monkeypatch.setattr(
            catalog, "bundled_json", lambda n: tampered if n == name else real(n)
        )

    def test_reports_every_kind_of_mismatch(self, monkeypatch):
        # a codim-3 golden that swaps its first clean row and its special
        # case for invented ones and names the dropped row's cover as a
        # decoy: each comparison reports both directions
        golden = bundled_json("quotients_codim3.json")
        dropped, special = golden["rows"][0], golden["special_cases"][0]
        invented_row = dict(dropped, cover="Y_{row} in P(1,1,1,1,1,1,1)")
        invented_special = dict(special, cover="Y_{special} in P(1,1,1,1,1,1,1)", r=7)
        tampered = dict(
            golden,
            rows=golden["rows"][1:] + [invented_row],
            special_cases=[invented_special],
            decoys=golden["decoys"] + [{"cover": dropped["cover"], "reasons": []}],
        )
        self._tamper(monkeypatch, "quotients_codim3.json", tampered)
        assert catalog._verify_quotients("quotients_codim3.json", CENSUS) == [
            "quotients_codim3.json: missing expected row Y_{row} in P(1,1,1,1,1,1,1) r=2",
            "quotients_codim3.json: unexpected row Y_{2,2,2} in P(1,1,1,1,1,1,1) r=2",
            "quotients_codim3.json: missing special case Y_{special} in P(1,1,1,1,1,1,1) r=7",
            f"quotients_codim3.json: unexpected special case {special['cover']} r={special['r']}",
            "quotients_codim3.json: decoy Y_{2,2,2} in P(1,1,1,1,1,1,1) produced a clean row",
        ]

    def test_reports_decoy_reasons_never_seen(self, monkeypatch):
        golden = bundled_json("quotients_codim3.json")
        first = golden["decoys"][0]
        decoys = [dict(first, reasons=first["reasons"] + ["inconsistent-data"])]
        decoys += [{"cover": "Y_{none} in P(1,1,1,1,1,1,1)", "reasons": ["parity-fail"]}]
        self._tamper(monkeypatch, "quotients_codim3.json", dict(golden, decoys=decoys))
        assert catalog._verify_quotients("quotients_codim3.json", CENSUS) == [
            f"quotients_codim3.json: decoy {first['cover']} never rejected with "
            f"'inconsistent-data' (saw {first['reasons']})",
            "quotients_codim3.json: decoy Y_{none} in P(1,1,1,1,1,1,1) never "
            "rejected with 'parity-fail' (saw nothing)",
        ]

    def test_reports_decoy_reasons_the_golden_does_not_list(self, monkeypatch):
        # the first decoy loses 'parity-fail' from its golden reasons, which
        # the search still produces: reasons are compared both ways
        golden = bundled_json("quotients_codim3.json")
        first = golden["decoys"][0]
        assert "parity-fail" in first["reasons"]
        reasons = [x for x in first["reasons"] if x != "parity-fail"]
        decoys = [dict(first, reasons=reasons)] + golden["decoys"][1:]
        self._tamper(monkeypatch, "quotients_codim3.json", dict(golden, decoys=decoys))
        assert catalog._verify_quotients("quotients_codim3.json", CENSUS) == [
            f"quotients_codim3.json: decoy {first['cover']} rejected with "
            f"unexpected 'parity-fail'",
        ]

    def test_reports_census_mismatches_per_order_and_in_total(self, monkeypatch):
        # order 2 loses a basket and order 5 swaps one for an order-4 basket
        golden = bundled_json("torsion_baskets.json")
        baskets = dict(golden["baskets"])
        baskets["2"] = baskets["2"][1:]
        baskets["5"] = [baskets["4"][0]] + baskets["5"][1:]
        self._tamper(
            monkeypatch, "torsion_baskets.json", dict(golden, baskets=baskets)
        )
        assert catalog._verify_baskets(CENSUS) == [
            "torsion_baskets.json: order 2 has 20 baskets, golden lists 19 (or contents differ)",
            "torsion_baskets.json: order 5 has 4 baskets, golden lists 4 (or contents differ)",
            "torsion_baskets.json: 39 baskets enumerated, golden freezes 38",
        ]

    def test_reports_census_total_beyond_the_enumerated_orders(self, monkeypatch):
        golden = bundled_json("torsion_baskets.json")
        baskets = dict(golden["baskets"], **{"25": [golden["baskets"]["2"][0]]})
        self._tamper(
            monkeypatch, "torsion_baskets.json", dict(golden, baskets=baskets)
        )
        assert catalog._verify_baskets(CENSUS) == [
            "torsion_baskets.json: 39 baskets enumerated, golden freezes 40",
        ]

    def test_reports_every_kind_of_series_mismatch(self, monkeypatch):
        # the untwisted peel differs at t^3 and t^5 (only the first is
        # reported); the bigraded peel at three positions (all reported)
        golden = bundled_json("series_examples.json")
        plain, twisted = golden["untwisted"], golden["bigraded"]
        coeffs = list(plain["coeffs"])
        coeffs[4] = "47"
        components = [list(row) for row in twisted["components"]]
        components[2][3] = "6"
        tampered = {
            "untwisted": dict(
                plain, coeffs=coeffs, peeled={"0": "1", "3": "2", "5": "1"}
            ),
            "bigraded": dict(
                twisted,
                components=components,
                peeled={"0,0": "1", "2,1": "3", "7,3": "1"},
            ),
        }
        self._tamper(monkeypatch, "series_examples.json", tampered)
        assert catalog._verify_series_examples() == [
            "series_examples.json: untwisted coefficients differ",
            "series_examples.json: peeled untwisted series differs at t^3",
            "series_examples.json: bigraded component 2 differs",
            "series_examples.json: peeled bigraded series differs at t^5 e^0",
            "series_examples.json: peeled bigraded series differs at t^2 e^1",
            "series_examples.json: peeled bigraded series differs at t^7 e^3",
        ]


class TestGoldenRows:
    def test_clean_complete_intersection_rows_are_gorenstein(self):
        # adjunction: a complete intersection has K = O(sum rel - sum gen),
        # and -K is the class of bidegree (1, 0), so sum n = 1 and
        # sum i = 0 mod r over generators minus relations
        checked = 0
        for name in GOLDEN_FILES:
            golden = bundled_json(name)
            structure = {
                rec.name: rec.structure for rec in bundled_catalog(golden["catalog"])
            }
            for row in golden["rows"]:
                if structure[row["cover"]] != "ci":
                    continue
                gens, rels = row["generators"], row["relations"]
                tag = f"{name} {row['cover']} r={row['r']}"
                assert sum(n for n, _ in gens) - sum(n for n, _ in rels) == 1, tag
                assert (sum(i for _, i in gens) - sum(i for _, i in rels)) % row["r"] == 0, tag
                checked += 1
        assert checked == 58
