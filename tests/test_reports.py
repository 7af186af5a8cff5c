import json
from collections import Counter

import pytest

import faultscope as fs
from faultscope import BatchSpec, IntBounds, Mechanism, ReportMeta

ALL = (Mechanism.UP, Mechanism.CSP, Mechanism.CAP)


@pytest.fixture(scope="module")
def report(golden, up_paths):
    return fs.analyze(fs.Analysis(golden, up_paths), ALL, group=["v1", "v2", "v4"])


class TestAnalyze:
    def test_one_row_per_node(self, report, golden):
        assert len(report.rows) == golden.sigma
        assert report.sigma == 4

    def test_rows_sorted_by_first_mechanism(self, report):
        assert [r.node for r in report.rows] == ["v1", "v4", "v2", "v3"]

    def test_rows_keep_raw_bounds(self, report):
        by_node = {r.node: r for r in report.rows}
        assert by_node["v2"].bound(Mechanism.UP) == IntBounds(0, 1)
        assert by_node["v2"].bound(Mechanism.CSP) == IntBounds.exactly(3)
        assert by_node["v2"].bound(Mechanism.CAP) == IntBounds.exactly(4)

    def test_degree_split(self, report, golden):
        for row in report.rows:
            assert row.monitor_degree + row.nonmonitor_degree == row.degree
            assert row.degree == golden.degree(row.node)

    def test_set_rows_fold_single_failure(self, report):
        bounds = {r.mechanism: r.bounds for r in report.set_rows}
        assert bounds[Mechanism.UP] == IntBounds.exactly(1)
        assert bounds[Mechanism.CSP] == IntBounds.exactly(3)
        assert bounds[Mechanism.CAP] == IntBounds.exactly(4)

    def test_maxset_rows_cover_all_k(self, report, golden):
        seen = {(r.mechanism, r.k) for r in report.maxset_rows}
        assert seen == {(m, k) for m in ALL for k in range(1, golden.sigma + 1)}

    def test_exact_mode_uses_oracle(self, golden, up_paths):
        rep = fs.analyze(fs.Analysis(golden, up_paths), [Mechanism.UP], exact=True)
        got = {r.node: r.bound(Mechanism.UP) for r in rep.rows}
        assert got == {
            "v1": IntBounds.exactly(4),
            "v2": IntBounds.exactly(1),
            "v3": IntBounds.exactly(0),
            "v4": IntBounds.exactly(4),
        }

    def test_up_needs_paths_or_routes(self, golden):
        rep = fs.analyze(golden, [Mechanism.UP])
        got = {r.node: r.bound(Mechanism.UP) for r in rep.rows}
        assert got["v1"] == IntBounds.exactly(4)


class TestCsvRendering:
    def test_header_lines(self, golden, up_paths):
        meta = ReportMeta(seed=42, flags="mechanism=up seed=42")
        report = fs.analyze(fs.Analysis(golden, up_paths), [Mechanism.UP])
        text = report._replace(meta=meta).to_csv()
        lines = text.splitlines()
        assert lines[0] == "# schema: faultscope/analysis v1"
        assert lines[1].startswith("# version: ")
        assert lines[2] == "# seed: 42"
        assert lines[3] == "# flags: mechanism=up seed=42"
        assert lines[4].split(",") == list(fs.reports.ANALYSIS_COLUMNS)

    def test_missing_meta_dashes(self, golden, up_paths):
        lines = fs.analyze(fs.Analysis(golden, up_paths), [Mechanism.UP]).to_csv().splitlines()
        assert lines[2] == "# seed: -"
        assert lines[3] == "# flags: -"

    def test_node_rows(self, golden, up_paths):
        text = fs.analyze(fs.Analysis(golden, up_paths), ALL).to_csv()
        assert "node,up,v2,,4,1,3,0,1,false,," in text
        assert "node,cap,v2,,4,1,3,4,4,true,," in text

    def test_maxset_rows(self, golden, up_paths):
        text = fs.analyze(fs.Analysis(golden, up_paths), ALL, group=["v1", "v2", "v4"]).to_csv()
        assert "set,up,v1+v2+v4,,,,,1,1,true,," in text
        assert "maxset,up,,4,,,,,,true,v1+v4,v1+v4" in text
        assert "maxset,csp,,4,,,,,,true,v1+v3+v4,v1+v3+v4" in text

    def test_deterministic(self, golden, up_paths):
        render = lambda: fs.analyze(fs.Analysis(golden, up_paths), ALL).to_csv()
        assert render() == render()


class TestJsonRendering:
    def test_shape(self, golden, up_paths):
        doc = json.loads(fs.analyze(fs.Analysis(golden, up_paths), ALL, group=["v2"]).to_json())
        assert doc["schema"] == "faultscope/analysis v1"
        assert doc["sigma"] == 4
        assert doc["mechanisms"] == ["up", "csp", "cap"]
        assert len(doc["nodes"]) == 4
        first = doc["nodes"][0]
        assert first["node"] == "v1"
        assert first["bounds"]["up"] == {"exact": True, "hi": 4, "lo": 4}
        assert doc["sets"][0]["members"] == ["v2"]
        assert any(m["k"] == 4 for m in doc["maxsets"])

    def test_ends_with_newline(self, golden, up_paths):
        assert fs.analyze(fs.Analysis(golden, up_paths), [Mechanism.UP]).to_json().endswith("\n")


class TestRowsAreTheirRecords:
    """Each JSON row, and the CCDF CSV header, is its record's fields."""

    def test_node_rows(self, golden, up_paths):
        doc = json.loads(fs.analyze(fs.Analysis(golden, up_paths), ALL).to_json())
        assert [set(row) for row in doc["nodes"]] == [set(fs.reports.AnalysisRow._fields)] * 4

    def test_ccdf_rows(self, golden, up_paths):
        table = fs.ccdf(fs.Analysis(golden, up_paths), ALL)
        doc = json.loads(table.to_json())
        assert [set(row) for row in doc["rows"]] == [set(fs.reports.CcdfRow._fields)] * 12
        assert table.to_csv().splitlines()[4].split(",") == list(fs.reports.CcdfRow._fields)

    def test_verify_failures(self):
        failures = (fs.CheckFailure("er[0]", "cap", "v: closed form 1 != oracle 2"),) * 2
        doc = json.loads(fs.VerificationReport(1, 2, failures).to_json())
        assert [set(f) for f in doc["failures"]] == [set(fs.CheckFailure._fields)] * 2
        assert doc["failures"][0] == failures[0]._asdict()


class TestMaxsetAndSetReports:
    def test_maxset_single_k(self, golden):
        rep = fs.maxset_report(golden, [Mechanism.CSP], ks=[4])
        (row,) = rep.maxset_rows
        assert row.k == 4
        assert sorted(row.sets.inner) == ["v1", "v3", "v4"]
        assert row.sets.exact

    def test_maxset_k_validated(self, golden):
        with pytest.raises(ValueError):
            fs.maxset_report(golden, [Mechanism.CSP], ks=[9])

    def test_set_report_oracle(self, golden, up_paths):
        a = fs.Analysis(golden, up_paths)
        rep = fs.set_report(a, [Mechanism.UP], ["v1", "v2", "v4"], exact=True)
        (row,) = rep.set_rows
        assert row.bounds == IntBounds.exactly(1)
        assert row.members == ("v1", "v2", "v4")


class TestCcdf:
    def test_routing_fractions(self, golden, up_paths):
        rows = fs.ccdf(fs.Analysis(golden, up_paths), [Mechanism.UP]).rows
        frac = {r.k: (r.inner_fraction, r.outer_fraction, r.exact) for r in rows}
        assert frac[1] == (0.75, 0.75, True)
        for k in (2, 3, 4):
            assert frac[k] == (0.5, 0.5, True)

    def test_theorem_fractions(self, golden):
        rows = fs.ccdf(golden, [Mechanism.CSP, Mechanism.CAP]).rows
        frac = {(r.mechanism, r.k): r.inner_fraction for r in rows}
        for k in (1, 2, 3):
            assert frac[(Mechanism.CSP, k)] == 1.0
        assert frac[(Mechanism.CSP, 4)] == 0.75
        for k in (1, 2, 3, 4):
            assert frac[(Mechanism.CAP, k)] == 1.0

    def test_mu_column(self, golden, up_paths):
        assert all(r.mu == 3 for r in fs.ccdf(fs.Analysis(golden, up_paths), [Mechanism.UP]).rows)

    def test_non_increasing(self, golden, up_paths):
        rows = fs.ccdf(fs.Analysis(golden, up_paths), ALL).rows
        for mech in ALL:
            series = [r for r in rows if r.mechanism == mech]
            for a, b in zip(series, series[1:]):
                assert b.inner_fraction <= a.inner_fraction
                assert b.outer_fraction <= a.outer_fraction

    def test_csv(self, golden, up_paths):
        lines = fs.ccdf(fs.Analysis(golden, up_paths), [Mechanism.UP]).to_csv().splitlines()
        assert lines[0] == "# schema: faultscope/ccdf v1"
        assert lines[4] == "k,mechanism,mu,inner_fraction,outer_fraction,exact"
        assert lines[5] == "1,up,3,0.75,0.75,true"

    def test_json(self, golden, up_paths):
        doc = json.loads(fs.ccdf(fs.Analysis(golden, up_paths), [Mechanism.UP]).to_json())
        assert doc["schema"] == "faultscope/ccdf v1"
        assert doc["rows"][0]["inner_fraction"] == 0.75


class TestCcdfBatch:
    SPEC = BatchSpec(count=3, n=10, p=0.35, mus=(2, 3), seed=5, mechanisms=(Mechanism.CAP, Mechanism.UP))
    MUS_REFUSED = r"field 'mus' must be a non-empty list of distinct integers in 1\.\.9, got "

    @pytest.mark.parametrize("mechanisms", [SPEC.mechanisms, ("cap", "up")], ids=["enum", "str"])
    def test_parallel_equals_serial(self, mechanisms):
        # a spec built directly may name its mechanisms as strings
        spec = self.SPEC._replace(mechanisms=mechanisms)
        serial = fs.ccdf_batch(spec)
        parallel = fs.ccdf_batch(spec, jobs=2)
        assert serial.rows == parallel.rows == fs.ccdf_batch(self.SPEC).rows

    def test_row_layout(self):
        rows = fs.ccdf_batch(self.SPEC).rows
        assert len(rows) == 30
        assert all(0.0 <= r.inner_fraction <= r.outer_fraction <= 1.0 for r in rows)
        mus = [r.mu for r in rows]
        assert mus == sorted(mus)

    def test_non_increasing_in_k(self):
        rows = fs.ccdf_batch(self.SPEC).rows
        for mu in (2, 3):
            for mech in self.SPEC.mechanisms:
                series = [r for r in rows if r.mu == mu and r.mechanism == mech]
                for a, b in zip(series, series[1:]):
                    assert b.inner_fraction <= a.inner_fraction
                    assert b.outer_fraction <= a.outer_fraction

    def test_count_validated(self):
        with pytest.raises(ValueError, match=r"field 'count' must be an integer >= 1, got 0$"):
            fs.ccdf_batch(self.SPEC._replace(count=0))

    @pytest.mark.parametrize("n", [0, 1, -5, 10001])
    def test_n_validated(self, n):
        with pytest.raises(ValueError, match=rf"field 'n' must be an integer in 2\.\.10000, got {n}$"):
            fs.ccdf_batch(self.SPEC._replace(n=n))

    def test_mu_validated(self):
        with pytest.raises(ValueError, match=self.MUS_REFUSED + r"\[10\]$"):
            fs.ccdf_batch(self.SPEC._replace(mus=(10,)))

    @pytest.mark.parametrize(("mus", "got"), [((0,), r"\[0\]$"), ((), r"\[\]$")])
    def test_mu_below_one_or_none_refused(self, mus, got):
        with pytest.raises(ValueError, match=self.MUS_REFUSED + got):
            fs.ccdf_batch(self.SPEC._replace(mus=mus))

    def test_repeated_mu_refused(self):
        # summed under one key, a repeated mu would double its fractions
        with pytest.raises(ValueError, match=self.MUS_REFUSED + r"\[2, 3, 2\]$"):
            fs.ccdf_batch(self.SPEC._replace(mus=(2, 3, 2)))

    @pytest.mark.parametrize(
        ("field", "value"),
        [("count", "3"), ("n", 5.5), ("p", "x"), ("mus", (2.5,)), ("mechanisms", ("bogus",))],
    )
    def test_spec_built_in_code_refused_by_field(self, field, value):
        # the rows that check a JSON spec check one built in code, so a wrong
        # value is named, never a TypeError from the arithmetic on it
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            fs.ccdf_batch(self.SPEC._replace(**{field: value}))

    @pytest.mark.parametrize("jobs", ["2", 1.5, True, 0])
    def test_jobs_refused_before_any_draw(self, jobs, monkeypatch):
        # jobs is an integer >= 1; bool is not one, and the count is large
        # enough that a fractional jobs would reach the process pool
        def never(*args, **kwargs):
            raise AssertionError("an instance was drawn for a batch with a bad jobs")

        monkeypatch.setattr("faultscope.randomnet.gen_er", never)
        with pytest.raises(ValueError, match=rf"^jobs must be an integer >= 1, got {jobs!r}$"):
            fs.ccdf_batch(self.SPEC, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sparse_p_refused_before_any_instance_runs(self, jobs, monkeypatch):
        # every graph is drawn before the first instance is analysed or a pool
        # is built: instance 2 never connects at this p
        def never(*args, **kwargs):
            raise AssertionError("an instance ran before the refusal")

        monkeypatch.setattr("faultscope.reports.ccdf", never)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", never)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        spec = BatchSpec.from_dict({"count": 400, "n": 30, "p": 0.05, "mus": [1], "seed": 1})
        what = "no connected graph on 30 nodes at p=0.05, set by batch spec field 'p'"
        with pytest.raises(fs.GenerationError, match=rf"^ccdf\[2\]: {what}$"):
            fs.ccdf_batch(spec, jobs=jobs)

    def test_from_dict(self):
        spec = BatchSpec.from_dict(
            {"count": 3, "n": 10, "p": 0.35, "mus": [2, 3], "seed": 5}
        )
        assert spec.mechanisms == (Mechanism.CAP, Mechanism.CSP, Mechanism.UP)

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing the 'n' field"):
            BatchSpec.from_dict({"count": 2})


@pytest.fixture(scope="module")
def er30():
    base = fs.gen_er(30, 0.15, seed=3).topology
    return fs.place_monitors(base, 4, seed=3)


class TestTablesBuiltOnce:
    """One analyze builds each cut table once and reads every max set off it."""

    @pytest.fixture(params=["golden", "er30"])
    def instance(self, request, golden, up_paths, er30):
        if request.param == "golden":
            return golden, up_paths
        return er30, None

    def test_analyze_builds_each_table_once(self, instance, table_builds, monkeypatch):
        t, ps = instance
        routes: list = []
        monkeypatch.setattr(
            fs.identify, "route_up", lambda topo: routes.append(topo) or fs.route_up(topo)
        )

        report = fs.analyze(fs.Analysis(t, ps), ALL, group=t.non_monitors[:2])

        # the CSP star pass gives the CAP table
        built = Counter(table_builds)
        assert built[("csp_internals_all", None)] == 1
        assert built[("_csp_single_failure_nodes", None)] == 1
        assert built[("cap_values", None)] == 0
        for m in ALL:
            assert 1 <= built[("per_node_bounds", m)] <= 2
        assert len(routes) == (0 if ps is not None else 1)
        routed = ps if ps is not None else fs.route_up(t)
        refined = {m: fs.per_node_bounds(fs.Analysis(t, routed), m) for m in ALL}
        assert len(report.maxset_rows) == len(ALL) * t.sigma
        for row in report.maxset_rows:
            table = refined[row.mechanism]
            assert row.sets.inner == {v for v, b in table.items() if b.lo >= row.k}
            assert row.sets.outer == {v for v, b in table.items() if b.hi >= row.k}

    def test_one_analysis_serves_every_report(self, instance, table_builds, monkeypatch):
        t, ps = instance
        group = t.non_monitors[:2]
        builders = (
            lambda a: fs.analyze(a, ALL, group=group),
            lambda a: fs.maxset_report(a, ALL),
            lambda a: fs.set_report(a, ALL, group),
            lambda a: fs.ccdf(a, ALL),
        )
        # each report alone, from a fresh topology (routed) or a fresh Analysis
        fresh = [build(t if ps is None else fs.Analysis(t, ps)) for build in builders]
        table_builds.clear()
        routes: list = []
        monkeypatch.setattr(
            fs.identify, "route_up", lambda topo: routes.append(topo) or fs.route_up(topo)
        )

        shared = fs.Analysis(t, ps)
        assert [build(shared) for build in builders] == fresh

        built = Counter(table_builds)
        assert built[("csp_internals_all", None)] == 1
        assert built[("_csp_single_failure_nodes", None)] == 1
        assert built[("cap_values", None)] == 0
        for m in ALL:
            assert 1 <= built[("per_node_bounds", m)] <= 2
        # routed once when no paths were given
        assert len(routes) == (0 if ps is not None else 1)

    def test_cap_first_analyze_reads_cap_off_the_csp_table(self, instance, table_builds):
        t, ps = instance
        fs.analyze(fs.Analysis(t, ps), tuple(reversed(ALL)))
        built = Counter(name for name, _ in table_builds)
        assert built["csp_internals_all"] == 1
        assert built["cap_values"] == 0

    def test_cap_only_analyze_runs_the_star_flows_alone(self, instance, table_builds):
        t, _ = instance
        fs.analyze(t, [Mechanism.CAP])
        built = Counter(name for name, _ in table_builds)
        assert built["cap_values"] == 1
        assert built["csp_internals_all"] == built["_csp_single_failure_nodes"] == 0

    def test_analysis_answers_repeated_queries_from_one_table_each(self, instance, table_builds):
        t, ps = instance
        a = fs.Analysis(t, ps if ps is not None else fs.route_up(t))
        for m in ALL:
            for k in range(1, t.sigma + 1):
                fs.max_identifiable_set(a, k, m)
            fs.omega_set(a, t.non_monitors, m)
        for v in t.non_monitors:
            fs.omega_csp(a, v)
            fs.omega_cap(a, v)
        # CSP is queried before CAP, so the CAP table is its delta_star column;
        # CSP and UP keep a raw table under the refined one, CAP has one table
        cut_tables = ("csp_internals_all", "_csp_single_failure_nodes")
        assert Counter(table_builds) == Counter(
            [(name, None) for name in cut_tables]
            + [("per_node_bounds", m) for m in (Mechanism.CSP, Mechanism.UP)] * 2
            + [("per_node_bounds", Mechanism.CAP)]
        )

    def test_refined_query_first_keeps_the_raw_table(self, instance, monkeypatch):
        t, ps = instance
        calls: Counter = Counter()
        for name in ("gsc", "omega_csp"):
            original = getattr(fs.identify, name)

            def spy(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(fs.identify, name, spy)
        a = fs.Analysis(t, ps)
        fs.maxset_report(a, ALL)
        fs.analyze(a, ALL)
        assert calls == {"gsc": t.sigma, "omega_csp": t.sigma}

    def test_tables_keep_the_given_order_and_build_csp_first(self, instance, table_builds):
        t, ps = instance
        a = fs.Analysis(t, ps)
        tables = a.tables([Mechanism.CAP, Mechanism.CSP])
        assert list(tables) == [Mechanism.CAP, Mechanism.CSP]
        assert tables[Mechanism.CAP] == a.table(Mechanism.CAP)
        built = Counter(name for name, _ in table_builds)
        assert built["csp_internals_all"] == 1
        assert built["cap_values"] == 0
