"""Tests of the experiment harnesses (tables, figures, reporting)."""

import math

from repro.experiments.barriers import (figure12_series, figure13_series,
                                        figure14_series, run_barrier_sweep)
from repro.experiments.regions import (figure10_rows, figure11_rows,
                                       run_region_study, swqueue_rows)
from repro.experiments.tables import spl_parameters, table1, table2, table3
from repro.experiments.whole_program import (figure8_rows, figure9_rows,
                                             whole_program_study)
from repro.obs.render import format_series, format_table


class TestTables:
    def test_table1(self):
        data = table1()
        assert math.isclose(data["spl"]["total_area"], 0.51)

    def test_table2_rows(self):
        rows = table2()
        widths = dict((r[0], (r[1], r[2])) for r in rows)
        assert widths["Issue/Retire Width"] == ("1", "2")
        assert widths["ROB Entries"] == ("64", "64")
        assert widths["Coherence Protocol"] == ("MESI", "MESI")

    def test_table3_fractions(self):
        rows = {name: pct for name, _, pct in table3()}
        assert rows["hmmer"] == "85%"
        assert rows["adpcm"] == "99%"
        assert rows["ll3"] == "100%"

    def test_spl_parameters(self):
        params = spl_parameters()
        assert params["rows"] == 24 and params["cells_per_row"] == 16


class TestRegionStudy:
    def test_small_study_and_rows(self):
        study = run_region_study(["wc"], include_swqueue=True,
                                 overrides={"wc": {"items": 64}})
        rows10 = figure10_rows(study)
        rows11 = figure11_rows(study)
        assert rows10[0]["bench"] == "wc"
        assert "2Th+CompComm" in rows10[0]
        assert rows11[0]["2Th+CompComm"] > 0
        sw_rows = swqueue_rows(study)
        assert sw_rows and sw_rows[0]["swqueue_slowdown_pct"] > 0


class TestWholeProgram:
    def test_composition_sane(self):
        points = whole_program_study(["g721enc"],
                                     overrides={"g721enc": {"items": 12}})
        point = points[0]
        # Whole-program gains are diluted by the non-region fraction.
        assert 1.0 < point.remap_speedup
        assert point.remap_speedup < 3.0
        assert point.remap_relative_ed > 0
        rows8 = figure8_rows(points)
        rows9 = figure9_rows(points)
        assert rows8[0]["ReMAP_improvement_pct"] > 0
        assert rows9[0]["ReMAP_relative_ED"] > 0


class TestBarrierSweep:
    def test_sweep_and_series(self):
        sweep = run_barrier_sweep("ll3", sizes=[64], thread_counts=(4,))
        s12 = figure12_series(sweep, thread_counts=(4,))
        assert "Seq" in s12 and "Barrier-p4" in s12
        assert "Barrier+Comp-p4" in s12
        s13 = figure13_series(sweep, thread_counts=(4,))
        assert "Barrier+Comp-p4" in s13
        s14 = figure14_series(sweep, thread_counts=(4,))
        assert s14["SW-p4"][0] > 0
        text = format_series(s12)
        assert "Barrier-p4" in text


class TestReport:
    def test_format_table_union_columns(self):
        rows = [{"bench": "a", "x": 1.0}, {"bench": "b", "x": 2.0,
                                           "y": 3.0}]
        text = format_table(rows)
        assert "y" in text and "a" in text

    def test_empty(self):
        assert format_table([]) == "(no rows)"
