"""Tests for catalog files and golden fixture verification."""

import importlib.util
import json
import re
import shutil
from pathlib import Path

import pytest

from fano_enriques import catalog, cli, quotient
from fano_enriques.catalog import (
    FORMAT_VERSION,
    GOLDEN_FILES,
    _diff,
    bundled_catalog,
    bundled_json,
    curated_payload,
    load_catalog,
    resolve_catalog,
    save_catalog,
)
from fano_enriques.errors import CatalogError
from fano_enriques.exact import Rational
from fano_enriques.gradedrings import Presentation
from fano_enriques.hilbert import FanoEnriquesData
from fano_enriques.orbifold import Basket
from fano_enriques.quotient import CoverRecord, QuotientCandidate, search
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

    def test_writes_the_bundled_layout(self, tmp_path):
        for name in ("covers_codim1.json", "covers_codim2.json", "covers_codim3.json"):
            path = tmp_path / name
            save_catalog(bundled_catalog(name), path)
            assert path.read_text() == (catalog._data_root() / name).read_text()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CatalogError, match="cannot read"):
            load_catalog(tmp_path / "nope.json")

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(CatalogError, match=f"cannot read {re.escape(str(path))}: 'utf-8' codec"):
            load_catalog(path)

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

    @pytest.mark.parametrize(
        "point, complaint",
        [
            ({"r": 2, "a": 1, "l": 0.5}, "basket entry field l must be int, got 0.5"),
            ({"r": 2, "a": 1, "l": 1}, "basket entry 1/2(1,1,1)_1 is marked"),
            ({"r": 2, "a": 1, "l": True}, "basket entry field l must be int, got True"),
            ({"r": 2, "a": True}, "basket entry field a must be int, got True"),
        ],
        ids=["fractional-l", "marked", "bool-l", "bool-a"],
    )
    def test_marked_or_non_integer_basket(self, tmp_path, point, complaint):
        # each used to load as the quintic with the marking dropped
        path = tmp_path / "quintic.json"
        record = dict(Y5.to_json(), basket=[point])
        path.write_text(json.dumps({"format_version": FORMAT_VERSION, "entries": [record]}))
        with pytest.raises(CatalogError) as err:
            load_catalog(path)
        message = str(err.value)
        assert message.startswith(f"{path} entry 0: unreadable record")
        assert complaint in message

    def test_engine_errors_are_reported_per_entry(self, tmp_path):
        # a non-terminal point and an out-of-range marking each ended the load
        # with the bare engine error, naming no file, no entry and no other problem
        path = tmp_path / "bad.json"
        entries = [
            dict(Y5.to_json(), basket=[{"r": 4, "a": 2}]),
            dict(Y4.to_json(), basket=[{"r": 2, "a": 1, "l": 5}]),
            {k: v for k, v in Y4.to_json().items() if k != "weights"},
        ]
        path.write_text(json.dumps({"format_version": FORMAT_VERSION, "entries": entries}))
        with pytest.raises(CatalogError) as err:
            load_catalog(path)
        assert str(err.value) == (
            f"{path} entry 0: unreadable record (1/4(1,2,2) is not in canonical terminal form)\n"
            f"{path} entry 1: unreadable record (marking 5 out of range for 1/2(1,1,1))\n"
            f"{path} entry 2: unreadable record (cover JSON has no field 'weights')"
        )

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

    def test_every_cover_is_a_source_row_or_a_decoy(self):
        # the cover catalogs are edited by hand: each cover is the cover of a
        # labelled row or special case or one of the decoys, never both
        counts = []
        for name in GOLDEN_FILES:
            golden = bundled_json(name)
            covers = sorted(rec.name for rec in bundled_catalog(golden["catalog"]))
            sources = {
                row["cover"] for row in golden["rows"] + golden["special_cases"] if "label" in row
            }
            decoys = [decoy["cover"] for decoy in golden["decoys"]]
            assert covers == sorted([*sources, *decoys]), name
            counts.append(len(covers))
        assert counts == [15, 29, 4]

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


Y5_ROW = "Y_{5} in P(1,1,1,1,2) r=5 bt {1/5(1,2,3)_1 x2, 1/10(1,3,7)_6}"


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
        return QuotientCandidate(Y5, data, pres).to_json()

    def test_candidate_row_fields(self):
        row = self._row()
        assert list(row) == [
            "cover", "r", "minusK3", "bt", "be", "generators", "relations", "flags"
        ]
        assert row["cover"] == "Y_{5} in P(1,1,1,1,2)"
        assert row["r"] == 5
        assert row["minusK3"] == "1/2"
        assert row["generators"] == [[1, 0], [1, 1], [1, 3], [1, 4], [2, 2]]
        assert row["relations"] == [[5, 0]]
        assert row["flags"] == []

    def test_row_key_ignores_annotations(self):
        row = self._row()
        annotated = dict(row, label="1", notes="source row 1")
        assert _diff("g.json", "", {"rows": [annotated]}, {"rows": [row]}) == []

    def test_row_key_sees_flags(self):
        row = self._row()
        flagged = dict(row, flags=["cross-codimension"])
        assert _diff("g.json", "", {"rows": [flagged]}, {"rows": [row]}) == [
            f"g.json rows[{Y5_ROW}].flags: golden 1 item, run 0 items"
        ]

    def test_other_lists_compare_by_position_and_type(self):
        assert _diff("g.json", "", {"a": [1, 2], "b": 1}, {"a": [2, 1], "b": True}) == [
            "g.json a[0]: golden 1, run 2",
            "g.json a[1]: golden 2, run 1",
            "g.json b: golden 1, run true",
        ]


class TestGoldenComparison:
    def _problems(self, monkeypatch, capsys, reproduction, tampered: dict) -> list[str]:
        """The mismatches of the session run against the bundled goldens with
        `tampered` (file name -> JSON) in place of some; verify-fixtures must
        print the same lines and exit 2."""
        real = catalog.bundled_json
        monkeypatch.setattr(
            catalog, "bundled_json", lambda n: tampered[n] if n in tampered else real(n)
        )
        problems = reproduction.mismatches()
        monkeypatch.setattr(catalog, "reproduce", lambda: reproduction)
        assert cli.main(["verify-fixtures"]) == 2
        out = capsys.readouterr()
        assert (out.out.splitlines(), out.err) == (problems, "")
        return problems

    def test_reports_every_kind_of_mismatch(self, monkeypatch, capsys, reproduction):
        # a codim-3 golden that swaps its first clean row and its special
        # case for invented ones and names the dropped row's cover as a
        # decoy: each keyed list reports both directions
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
        octic = "bt {1/2(1,1,1)_1 x8}"
        special_bt = "bt {1/2(1,1,1)_1 x5, 1/6(1,1,5)_3}"
        assert self._problems(
            monkeypatch, capsys, reproduction, {"quotients_codim3.json": tampered}
        ) == [
            f"quotients_codim3.json rows[Y_{{row}} in P(1,1,1,1,1,1,1) r=2 {octic}]: "
            "golden an object, run nothing",
            f"quotients_codim3.json rows[Y_{{2,2,2}} in P(1,1,1,1,1,1,1) r=2 {octic}]: "
            "golden nothing, run an object",
            "quotients_codim3.json special_cases[Y_{special} in P(1,1,1,1,1,1,1) r=7 "
            f"{special_bt}]: golden an object, run nothing",
            f"quotients_codim3.json special_cases[{special['cover']} r=2 {special_bt}]: "
            "golden nothing, run an object",
            # the decoy produced a clean row, so the run has no decoy entry
            "quotients_codim3.json decoys[Y_{2,2,2} in P(1,1,1,1,1,1,1)]: "
            "golden an object, run nothing",
        ]

    def test_reports_decoy_reasons_never_seen(self, monkeypatch, capsys, reproduction):
        golden = bundled_json("quotients_codim3.json")
        first = golden["decoys"][0]
        decoys = [dict(first, reasons=first["reasons"] + ["inconsistent-data"])]
        decoys += [{"cover": "Y_{none} in P(1,1,1,1,1,1,1)", "reasons": ["parity-fail"]}]
        assert self._problems(
            monkeypatch, capsys, reproduction,
            {"quotients_codim3.json": dict(golden, decoys=decoys)},
        ) == [
            f"quotients_codim3.json decoys[{first['cover']}].reasons: "
            "golden 4 items, run 3 items",
            "quotients_codim3.json decoys[Y_{none} in P(1,1,1,1,1,1,1)].reasons: "
            "golden 1 item, run 0 items",
        ]

    def test_reports_decoy_reasons_the_golden_does_not_list(
        self, monkeypatch, capsys, reproduction
    ):
        # the first decoy loses 'parity-fail' from its golden reasons, which
        # the search still produces: reasons are compared both ways
        golden = bundled_json("quotients_codim3.json")
        first = golden["decoys"][0]
        assert "parity-fail" in first["reasons"]
        reasons = [x for x in first["reasons"] if x != "parity-fail"]
        decoys = [dict(first, reasons=reasons)] + golden["decoys"][1:]
        assert self._problems(
            monkeypatch, capsys, reproduction,
            {"quotients_codim3.json": dict(golden, decoys=decoys)},
        ) == [
            f"quotients_codim3.json decoys[{first['cover']}].reasons: "
            "golden 2 items, run 3 items",
        ]

    def test_reports_search_inputs_the_reproduction_does_not_use(
        self, monkeypatch, capsys, reproduction
    ):
        # a golden naming another catalog or other bounds is reported, not
        # followed: its rows are still compared with the fixed search
        golden = bundled_json("quotients_codim3.json")
        tampered = dict(golden, catalog="covers_codim2.json", trunc=20)
        del tampered["max_degree"]
        assert self._problems(
            monkeypatch, capsys, reproduction, {"quotients_codim3.json": tampered}
        ) == [
            'quotients_codim3.json catalog: golden "covers_codim2.json", '
            'run "covers_codim3.json"',
            "quotients_codim3.json trunc: golden 20, run 24",
            "quotients_codim3.json max_degree: golden nothing, run 24",
        ]

    @pytest.mark.parametrize("version", ["2", 1])
    def test_reports_another_format_version(self, monkeypatch, capsys, reproduction, version):
        golden = bundled_json("quotients_codim1.json")
        assert self._problems(
            monkeypatch, capsys, reproduction,
            {"quotients_codim1.json": dict(golden, format_version=version)},
        ) == [f'quotients_codim1.json format_version: golden {json.dumps(version)}, run "1"']

    def test_reports_a_repeated_clean_row(self, monkeypatch, capsys, reproduction):
        # the printed table would list the row twice and count 13 clean rows
        golden = bundled_json("quotients_codim1.json")
        row = golden["rows"][3]
        assert self._problems(
            monkeypatch, capsys, reproduction,
            {"quotients_codim1.json": dict(golden, rows=golden["rows"] + [row])},
        ) == [
            f"quotients_codim1.json rows[{row['cover']} r=2 bt {{1/2(1,1,1)_1 x8}}, "
            "again at 12]: golden an object, run nothing",
        ]

    def test_reports_census_mismatches_per_order_and_in_total(
        self, monkeypatch, capsys, reproduction
    ):
        # order 2 loses a basket and order 5 swaps one for an order-4 basket
        golden = bundled_json("torsion_baskets.json")
        baskets = dict(golden["baskets"])
        baskets["2"] = baskets["2"][1:]
        baskets["5"] = [baskets["4"][0]] + baskets["5"][1:]
        assert self._problems(
            monkeypatch, capsys, reproduction,
            {"torsion_baskets.json": dict(golden, baskets=baskets)},
        ) == [
            "torsion_baskets.json baskets.2: golden 19 items, run 20 items",
            "torsion_baskets.json baskets.5[0]: golden 6 items, run 4 items",
        ]

    def test_reports_census_total_beyond_the_enumerated_orders(
        self, monkeypatch, capsys, reproduction
    ):
        golden = bundled_json("torsion_baskets.json")
        baskets = dict(golden["baskets"], **{"25": [golden["baskets"]["2"][0]]})
        assert self._problems(
            monkeypatch, capsys, reproduction,
            {"torsion_baskets.json": dict(golden, baskets=baskets)},
        ) == ["torsion_baskets.json baskets.25: golden 1 item, run nothing"]

    def test_reports_baskets_out_of_enumeration_order(self, monkeypatch, capsys, reproduction):
        # the census table numbers baskets r.k by enumeration position, so
        # the same baskets in another order are a mismatch
        golden = bundled_json("torsion_baskets.json")
        baskets = dict(golden["baskets"], **{"2": golden["baskets"]["2"][::-1]})
        problems = self._problems(
            monkeypatch, capsys, reproduction,
            {"torsion_baskets.json": dict(golden, baskets=baskets)},
        )
        assert problems[0] == "torsion_baskets.json baskets.2[0]: golden 2 items, run 8 items"
        assert len(problems) == 34
        assert all(line.startswith("torsion_baskets.json baskets.2[") for line in problems)

    def test_reports_worked_example_inputs_the_reproduction_does_not_use(
        self, monkeypatch, capsys, reproduction
    ):
        golden = bundled_json("series_examples.json")
        plain, twisted = golden["untwisted"], golden["bigraded"]
        tampered = {
            "untwisted": dict(plain, peel=plain["peel"][1:]),
            "bigraded": dict(twisted, data=dict(twisted["data"], minusK3="1")),
        }
        assert self._problems(
            monkeypatch, capsys, reproduction, {"series_examples.json": tampered}
        ) == [
            "series_examples.json untwisted.peel: golden 4 items, run 5 items",
            'series_examples.json bigraded.data.minusK3: golden "1", run "1/2"',
        ]

    def test_reports_missing_and_ill_typed_keys(self, monkeypatch, reproduction, capsys):
        # goldens that are valid JSON but not in the stored layout: one
        # problem line per key path, and verify-fixtures exits 2, not a KeyError
        codim3 = bundled_json("quotients_codim3.json")
        rows = [{k: v for k, v in codim3["rows"][0].items() if k != "cover"}]
        decoys = [dict(codim3["decoys"][0], reasons="parity-fail")]
        examples = bundled_json("series_examples.json")
        twisted = {k: v for k, v in examples["bigraded"].items() if k != "peeled"}
        codim1 = {k: v for k, v in bundled_json("quotients_codim1.json").items()
                  if k != "special_cases"}
        tampered = {
            "quotients_codim1.json": codim1,
            "quotients_codim2.json": {"stale": True},
            "quotients_codim3.json": dict(codim3, rows=rows + [7], decoys=decoys),
            "torsion_baskets.json": {"max_order": 24, "baskets": {"2": {}}},
            "series_examples.json": dict(examples, bigraded=dict(twisted, components="1")),
        }
        quadrics = "Y_{2,2,2} in P(1,1,1,1,1,1,1)"
        codim3_rows = [  # in search order
            f"{quadrics} r=2 bt {{1/2(1,1,1)_1 x8}}",
            f"{quadrics} r=4 bt {{1/2(1,1,1)_1 x2, 1/4(1,1,3)_1 x2, 1/4(1,1,3)_3 x2}}",
            "Y_{4,4,4,4,4} in P(1,1,1,2,2,2,2) r=5 "
            "bt {1/5(1,1,4)_1, 1/5(1,1,4)_4, 1/5(1,2,3)_1, 1/5(1,2,3)_4}",
            f"{quadrics} r=8 bt {{1/2(1,1,1)_1, 1/4(1,1,3)_1, 1/8(1,3,5)_3, 1/8(1,3,5)_7}}",
        ]
        assert self._problems(monkeypatch, capsys, reproduction, tampered) == [
            'series_examples.json bigraded.components: golden "1", run 5 items',
            "series_examples.json bigraded.peeled: golden nothing, run an object",
            "torsion_baskets.json baskets.2: golden an object, run 20 items",
            *(f"torsion_baskets.json baskets.{r}: golden nothing, run {n} item{'s' * (n > 1)}"
              for r, n in ((3, 7), (4, 5), (5, 4), (6, 2), (8, 1))),
            "quotients_codim1.json special_cases: golden nothing, run 2 items",
            "quotients_codim2.json stale: golden true, run nothing",
            'quotients_codim2.json format_version: golden nothing, run "1"',
            'quotients_codim2.json catalog: golden nothing, run "covers_codim2.json"',
            "quotients_codim2.json trunc: golden nothing, run 24",
            "quotients_codim2.json max_degree: golden nothing, run 24",
            "quotients_codim2.json rows: golden nothing, run 43 items",
            "quotients_codim2.json special_cases: golden nothing, run 2 items",
            "quotients_codim2.json decoys: golden nothing, run 0 items",
            "quotients_codim3.json rows[0]: golden an object, run nothing",
            "quotients_codim3.json rows[1]: golden 7, run nothing",
            *(f"quotients_codim3.json rows[{key}]: golden nothing, run an object"
              for key in codim3_rows),
            f"quotients_codim3.json decoys[{codim3['decoys'][0]['cover']}].reasons: "
            'golden "parity-fail", run 3 items',
        ]

    def test_reports_a_golden_that_is_not_an_object(self, monkeypatch, capsys, reproduction):
        assert self._problems(
            monkeypatch, capsys, reproduction, {"quotients_codim2.json": [7]}
        ) == ["quotients_codim2.json: golden 1 item, run an object"]

    @pytest.mark.parametrize("keep", [0, 4, 6])
    def test_reports_a_component_count_the_reproduction_does_not_have(
        self, monkeypatch, capsys, reproduction, keep
    ):
        # fewer components than r, or one repeated past it, is not a match
        golden = bundled_json("series_examples.json")
        twisted = golden["bigraded"]
        components = (twisted["components"] * 2)[:keep]
        assert self._problems(
            monkeypatch, capsys, reproduction,
            {"series_examples.json": dict(golden, bigraded=dict(twisted, components=components))},
        ) == [
            f"series_examples.json bigraded.components: golden {keep} items, run 5 items",
        ]

    def test_reports_every_kind_of_series_mismatch(self, monkeypatch, capsys, reproduction):
        # every coefficient that differs is reported, in both series, and
        # each peeled key that one side has and the other has not
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
        assert self._problems(
            monkeypatch, capsys, reproduction, {"series_examples.json": tampered}
        ) == [
            'series_examples.json untwisted.coeffs[4]: golden "47", run "46"',
            'series_examples.json untwisted.peeled.3: golden "2", run nothing',
            'series_examples.json untwisted.peeled.5: golden "1", run "-1"',
            'series_examples.json bigraded.components[2][3]: golden "6", run "5"',
            'series_examples.json bigraded.peeled.2,1: golden "3", run nothing',
            'series_examples.json bigraded.peeled.7,3: golden "1", run nothing',
            'series_examples.json bigraded.peeled.5,0: golden nothing, run "-1"',
        ]


class TestCuratedPayload:
    def test_carries_labels_notes_and_places_over_by_key(self, reproduction):
        # rows reversed, the last one lost, a decoy's special case labelled
        golden = bundled_json("quotients_codim1.json")
        rows, specials = golden["rows"][::-1], golden["special_cases"]
        decoy = "Y_{8} in P(1,1,2,2,3)"
        assert specials[1]["cover"] == decoy and "label" not in specials[1]
        labelled = dict(specials[1], label="x")
        tampered = dict(golden, rows=rows[1:], special_cases=[specials[0], labelled])
        payload = curated_payload(reproduction, "quotients_codim1.json", tampered)
        lost = {k: v for k, v in rows[0].items() if k not in ("label", "notes")}
        assert payload["rows"] == [*rows[1:], lost]
        assert payload["special_cases"] == [specials[0], labelled]
        assert [d["cover"] for d in payload["decoys"]] == [
            d["cover"] for d in golden["decoys"] if d["cover"] != decoy
        ]

    def test_a_candidate_that_changes_list_keeps_its_curated_fields(self, reproduction):
        golden = bundled_json("quotients_codim2.json")
        moved = golden["special_cases"][0]
        tampered = dict(
            golden, rows=[moved, *golden["rows"]], special_cases=golden["special_cases"][1:]
        )
        payload = curated_payload(reproduction, "quotients_codim2.json", tampered)
        assert payload["special_cases"] == [*golden["special_cases"][1:], moved]
        assert payload["rows"] == golden["rows"]

    @pytest.mark.parametrize("golden", [{"stale": True}, [], {"rows": [], "special_cases": [7]}])
    def test_refuses_a_golden_without_entry_lists(self, reproduction, golden):
        with pytest.raises(CatalogError, match="quotients_codim3.json: rows and special"):
            curated_payload(reproduction, "quotients_codim3.json", golden)


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

    @pytest.mark.parametrize("golden", GOLDEN_FILES)
    def test_raising_the_truncation_changes_no_row(self, reproduction, golden):
        # search checks every cover's series to the truncation it runs at,
        # and inference runs to it as well; past 24 nothing may change
        frozen = bundled_json(golden)
        covers = bundled_catalog(frozen["catalog"])
        lists = ("rows", "special_cases")
        for trunc in (24, 48):
            found = search(covers, reproduction.census, trunc=trunc).to_json()
            assert _diff(golden, "", {k: frozen[k] for k in lists},
                         {k: found[k] for k in lists}) == [], trunc


def load_build_script():
    """scripts/build_catalogs.py as a fresh module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "build_catalogs.py"
    spec = importlib.util.spec_from_file_location("build_catalogs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBuildScript:
    GOLDENS = ("torsion_baskets.json", "series_examples.json", *GOLDEN_FILES)

    def stale_copy(self, tmp_path, script):
        """A copy of the data directory whose goldens are all stale: a build
        that wrote any of them would change these bytes, and one that read
        any of them would fail."""
        data = tmp_path / "data"
        shutil.copytree(script.DATA_DIR, data)
        for name in self.GOLDENS:
            (data / name).write_text('{"stale": true}\n')
        return data

    def test_unreadable_golden_stops_the_build_before_any_write(
        self, tmp_path, monkeypatch, capsys
    ):
        # a stale quotient golden has no rows to carry labels and notes from
        script = load_build_script()
        data = self.stale_copy(tmp_path, script)
        before = {path.name: path.read_bytes() for path in data.iterdir()}
        monkeypatch.setattr(script, "DATA_DIR", data)
        monkeypatch.setattr(catalog, "_data_root", lambda: data)

        with pytest.raises(SystemExit) as stop:
            script.main()
        assert stop.value.code == 1
        assert capsys.readouterr().err == (
            "FAIL: quotients_codim1.json: rows and special cases are not lists of objects\n"
        )
        assert {path.name: path.read_bytes() for path in data.iterdir()} == before

    def test_refuses_a_package_reading_other_data(self, tmp_path, monkeypatch, capsys):
        # the package still reads the bundled files while the script would
        # write the copy: checking the one against the other proves nothing
        script = load_build_script()
        data = self.stale_copy(tmp_path, script)
        before = {path.name: path.read_bytes() for path in data.iterdir()}
        monkeypatch.setattr(script, "DATA_DIR", data)

        with pytest.raises(SystemExit) as stop:
            script.main()
        assert stop.value.code == 1
        assert capsys.readouterr().err.startswith(
            f"FAIL: the package reads {catalog._data_root()}, not this checkout's {data}"
        )
        assert {path.name: path.read_bytes() for path in data.iterdir()} == before

    def test_build_restores_a_drifted_golden_from_one_reproduction(
        self, tmp_path, monkeypatch, capsys
    ):
        # a non-curated field drifted: the build names it, overwrites it from
        # the run and keeps every label, note and place of the golden
        script = load_build_script()
        bundled = {name: (catalog._data_root() / name).read_bytes() for name in BUNDLED}
        data = tmp_path / "data"
        shutil.copytree(script.DATA_DIR, data)
        golden = bundled_json("quotients_codim2.json")
        row = golden["rows"][6]
        assert row["label"] == "4c" and row["notes"]
        row["relations"] = [[3, 0], [4, 1]]
        (data / "quotients_codim2.json").write_text(json.dumps(golden, indent=1) + "\n")
        monkeypatch.setattr(script, "DATA_DIR", data)
        monkeypatch.setattr(catalog, "_data_root", lambda: data)
        searches = []

        def counted(*args, **kwargs):
            searches.append(args)
            return quotient.search(*args, **kwargs)

        monkeypatch.setattr(catalog, "search", counted)
        script.main()
        out = capsys.readouterr().out.splitlines()
        key = "Y_{3,4} in P(1,1,1,1,2,2) r=4 bt {1/2(1,1,1)_1 x2, 1/8(1,1,7)_2, 1/8(1,1,7)_6}"
        assert [line for line in out if line.startswith("  overwriting ")] == [
            f"  overwriting quotients_codim2.json rows[{key}].relations[1][1]: golden 1, run 0"
        ]
        assert out[-1] == "verify_fixtures: all bundled fixtures check out"
        assert {path.name: path.read_bytes() for path in data.iterdir()} == bundled
        assert len(searches) == 3
