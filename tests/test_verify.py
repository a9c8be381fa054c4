"""Verification harness: passing suite on small grids, witness
reproducibility, negative controls, and configuration errors."""

import hashlib
import inspect
import json
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rieszbounds import bounds, riesz, spectra, verify
from rieszbounds._kernels import pykernels
from rieszbounds.errors import (ConfigError, DomainError, ResourceLimitError,
                               ValidityError)

import oracles

SMALL = verify.VerifyConfig(z_points=25, j_count=4, k_count=8,
                            hoelder_samples=10, moment_k_count=3,
                            control_z_points=15, control_j_count=3)


@pytest.fixture(scope="module")
def small_specs():
    return {
        "square": spectra.box_spectrum([1.0, 1.0], 1500.0),
        "disk": spectra.ball_spectrum(2, 1.0, 400.0),
    }


@pytest.fixture(scope="module")
def report(small_specs):
    return verify.run_suite(small_specs, SMALL)


class TestSuite:
    def test_all_checks_present(self, report):
        ids = {c.id for c in report.checks}
        assert ids == set(verify.MARGINS)

    def test_all_pass(self, report):
        failed = [c.id for c in report.checks if not c.passed]
        assert not failed, f"failed checks: {failed}"
        assert report.all_passed

    def test_margins_above_slack(self, report):
        for c in report.checks:
            assert c.worst_margin >= -verify.SLACK

    def test_nontrivial_point_counts(self, report):
        total = sum(c.n_points for c in report.checks)
        assert total > 1000
        for c in report.checks:
            assert c.n_points > 0, f"{c.id} swept no points"

    def test_witness_reproducible(self, report, small_specs):
        for c in report.checks:
            label = c.witness["spectrum"]
            margin = verify.reevaluate(small_specs[label], c.id, c.witness)
            assert margin == c.worst_margin, c.id

    def test_negative_control_detects_corruption(self, report):
        assert report.negative_control_ok
        for ctl in report.controls:
            assert ctl["n_failed"] >= 1

    def test_report_serializes(self, report):
        import json
        blob = json.dumps(report.to_json_dict())
        assert "worst_margin" in blob
        text = report.to_text()
        assert "ALL PASS" in text


class TestRieszMemo:
    def test_sweep_drops_its_table(self, small_specs, monkeypatch):
        spec = small_specs["disk"]
        tables = []
        margin = verify.MARGINS["thm21_diff1"]

        def spy(s, *row):
            tables.append(verify._riesz_memo.get(s))
            return margin(s, *row)

        monkeypatch.setitem(verify.MARGINS, "thm21_diff1", spy)
        verify._sweep("disk", spec, replace(SMALL, z_points=10),
                      ids={"thm21_diff1"})
        assert tables and tables[-1]
        assert spec not in verify._riesz_memo

    def test_sweep_drops_its_table_on_error(self, small_specs, monkeypatch):
        spec = small_specs["square"]

        def boom(s, *row):
            raise RuntimeError("boom")

        monkeypatch.setitem(verify.MARGINS, "thm21_diff1", boom)
        with pytest.raises(RuntimeError):
            verify._sweep("square", spec, replace(SMALL, z_points=10))
        assert spec not in verify._riesz_memo

    def test_memo_counts_only_misses(self, small_specs, monkeypatch):
        spec = small_specs["square"]
        calls = []
        riesz_value = verify.riesz_value

        def counting_riesz_value(s, sigma, z):
            calls.append((sigma, z))
            return riesz_value(s, sigma, z)

        monkeypatch.setattr(verify, "riesz_value", counting_riesz_value)
        verify._sweep("square", spec, SMALL)
        assert len(calls) == len(set(calls))


    @staticmethod
    def _count_passes(monkeypatch):
        """Count riesz_value calls and riesz_grid passes, each pass checked
        against riesz_value.  A per-z layer of the default suite holds one
        sign of sigma, because the Hoelder sigmas are >= 0; the table
        itself does not need it."""
        calls = {"value": 0, "grid": 0}
        riesz_value, riesz_grid = verify.riesz_value, verify.riesz_grid

        def counting_value(s, sigma, z):
            calls["value"] += 1
            return riesz_value(s, sigma, z)

        def counting_grid(s, layers, zs):
            calls["grid"] += 1
            # no default per-z layer mixes the directions of its terms, so
            # each takes the run path's blocks
            assert all(len({x < 0 for x in layer}) <= 1
                       for layer in layers if np.ndim(layer))
            rows = riesz_grid(s, layers, zs)
            assert rows == [[riesz_value(s, x, z)[0] for x, z in zip(
                layer if np.ndim(layer) else [layer] * len(zs), zs)]
                for layer in layers]
            return rows

        monkeypatch.setattr(verify, "riesz_value", counting_value)
        monkeypatch.setattr(verify, "riesz_grid", counting_grid)
        return calls

    @staticmethod
    def _read(spec, grids, pairs):
        """The table of ``grids`` that a sweep of ``spec`` reads, after
        ``_riesz`` has read each pair through it."""
        table = verify._riesz_memo[spec] = verify._riesz_table(spec, grids)
        try:
            for pair in pairs:
                verify._riesz(spec, *pair)
        finally:
            verify._riesz_memo.pop(spec)
        return table

    def test_grids_are_summed_before_the_families_run(self, small_specs,
                                                      monkeypatch):
        # every (sigma, z) of the three registered grids is in the table
        # when the first family's first margin runs
        spec = small_specs["disk"]
        grids = []
        verify._build_points(spec, SMALL, SMALL.z_points, grids)
        keys = {(s, z) for layers, zs in grids for layer in layers
                for s, z in zip(layer if np.ndim(layer)
                                else [layer] * len(zs), zs)}
        assert len(grids) == 3 and len(keys) > 100
        seen = []
        margin = verify.MARGINS["thm21_diff1"]

        def spy(s, *row):
            if not seen:
                seen.append(set(verify._riesz_memo[s]))
            return margin(s, *row)

        monkeypatch.setitem(verify.MARGINS, "thm21_diff1", spy)
        verify._sweep("disk", spec, SMALL)
        assert seen[0] >= keys

    def test_default_sweep_sums_rows(self, monkeypatch):
        # every value is summed in one of three grid passes: the z grid
        # with every sigma its families read there, the central-difference
        # rows z + h and z - h with their sigmas, and the z of the 60
        # Hoelder samples with their 3 random sigmas as per-z layers; no
        # single values
        spec = verify.default_spectra()["disk_r1"]
        calls = self._count_passes(monkeypatch)
        verify._sweep("disk", spec, verify.VerifyConfig())
        assert calls == {"value": 0, "grid": 3}

    def test_row_set_equals_riesz_value(self, monkeypatch):
        # a registered row's whole sigma set, summed in one pass, has the
        # bits of riesz_value at every (sigma, z): at sigma < 0 (terms
        # that rise along the spectrum), sigma = 0 (the count) and sigma >
        # 0, with more terms than one _CHUNK buffer holds; a z on no row is
        # the one riesz_value call
        spec = spectra.box_spectrum([1.0, 1.0], 50000.0)
        zs = np.linspace(spec.lambda_1 * 1.01, 49000.0, 90).tolist()
        sigmas = [-0.75, -0.5, 0.0, 0.25, 1.0, 2.5]
        terms = riesz._runs(spec).values.searchsorted(zs).sum()
        assert terms > pykernels._CHUNK
        calls = self._count_passes(monkeypatch)
        pairs = [(s, z) for z in zs for s in sigmas] + [(1.5, 18999.5)]
        table = self._read(spec, [(sigmas, zs)], pairs)
        values = [table[pair] for pair in pairs]
        assert calls == {"value": 1, "grid": 1}
        assert len(table) == len(pairs)
        assert [v.hex() for v in values] == \
            [riesz.riesz_value(spec, s, z)[0].hex() for s, z in pairs]
        assert values[2] == riesz.counting(spec, zs[0])

    def test_pair_batch_equals_riesz_value(self, monkeypatch):
        # a per-z layer summed in one pass has the bits of riesz_value,
        # pair by pair: at sigma = 0 (the count), five sigmas at one z, a z
        # on no other grid, and more terms than one _CHUNK buffer holds
        spec = spectra.box_spectrum([1.0, 1.0], 50000.0)
        zs = np.linspace(spec.lambda_1 * 1.01, 49000.0, 30).tolist()
        pairs = [(s, z) for z in zs for s in (0.0, 0.5, 1.0, 2.0, 2.7)]
        pairs += [(3.1, 18999.5)]   # on no row
        terms = riesz._runs(spec).values.searchsorted(
            [z for s, z in pairs if s])
        assert terms.sum() > pykernels._CHUNK
        calls = []
        monkeypatch.setattr(verify, "riesz_value",
                            lambda *args: calls.append(args))
        table = self._read(spec, [([0.5], zs[::2]),
                                  ([[s for s, _ in pairs]],
                                   [z for _, z in pairs])], pairs)
        values = [table[pair] for pair in pairs]
        assert not calls
        assert len(table) == len(pairs)
        assert [v.hex() for v in values] == \
            [riesz.riesz_value(spec, s, z)[0].hex() for s, z in pairs]
        assert values[0] == riesz.counting(spec, zs[0])

    def test_counting_reads_the_memo(self, small_specs, monkeypatch):
        # N(z) comes from the sigma = 0 memo entry, not riesz.counting
        spec = small_specs["disk"]
        z = 150.0
        expected = verify._margin(
            float(riesz.counting(spec, z)),
            bounds.counting_lower_j(2, 3, verify._mean(spec, 3), z))

        def no_counting(*args):
            raise AssertionError("riesz.counting bypasses the memo")

        monkeypatch.setattr(riesz, "counting", no_counting)
        assert verify.margin_cor29_counting(spec, j=3, z=z) == expected
        result = verify._sweep("disk", spec, SMALL,
                               ids={"cor29_counting", "hoelder_chain"})
        assert set(result) == {"cor29_counting", "hoelder_chain"}


class TestGoldenReport:
    """The default suite's report keeps its bytes: the JSON that ``verify
    --format json --full-precision`` writes at seeds 0 and 7, and the text
    report, hash as they did before the sweep summed each row's sigma set
    in one pass per sign."""

    DIGESTS = {
        ("json", 0): "9a4108d07c72c11cfa5d80d4c56239c1"
                     "5712a33d1c9d172362798f47a8f64a64",
        ("text", 0): "7880e1a497b7b2b342d3af8350afbec4"
                     "4022e9e76e803e450b6109031ae99f84",
        ("json", 7): "dee8157c8907561ba3114035b5bbda62"
                     "be997276b58177f5238155a8cad97a86",
    }

    def test_default_report_digests(self):
        # built on whatever earlier tests left in the Bessel-zero cache:
        # each zero has the bits a fresh ``verify`` process gives it
        specs = verify.default_spectra()
        got = {}
        for seed in (0, 7):
            report = verify.run_suite(specs, verify.VerifyConfig(seed=seed))
            blob = json.dumps(report.to_json_dict(), indent=2) + "\n"
            got["json", seed] = hashlib.sha256(blob.encode()).hexdigest()
            if seed == 0:
                got["text", seed] = hashlib.sha256(
                    report.to_text().encode()).hexdigest()
        assert got == self.DIGESTS


class TestMomentMemo:
    """While a spectrum is swept, each (k, order) moment is computed once
    and read back with the bits of ``_moment`` outside a sweep."""

    IDS = {"moment_ordering", "moment_interpolation"}

    def test_memo_values_equal_moment(self, small_specs, monkeypatch):
        spec = small_specs["square"]
        seen = {}
        computed = []
        margin = verify.MARGINS["moment_interpolation"]
        moment_value = riesz.power_mean

        def spy(s, *row):
            m = margin(s, *row)
            seen.update(verify._moment_memo[s])
            return m

        def counting_value(s, k, sigma):
            computed.append((k, sigma))
            return moment_value(s, k, sigma)

        monkeypatch.setitem(verify.MARGINS, "moment_interpolation", spy)
        monkeypatch.setattr(riesz, "power_mean", counting_value)
        verify._sweep("square", spec, SMALL, ids=self.IDS)
        assert spec not in verify._moment_memo
        assert seen and sorted(computed) == sorted(seen)
        for (k, sigma), value in seen.items():
            assert _bits(value) == _bits(verify._moment(spec, k, sigma)), \
                (k, sigma)

    def test_sweep_drops_its_memo_on_error(self, small_specs, monkeypatch):
        # moment_ordering fills the memo before moment_interpolation raises
        spec = small_specs["disk"]
        filled = []
        margin = verify.MARGINS["moment_ordering"]

        def spy(s, *row):
            filled.append(len(verify._moment_memo[s]))
            return margin(s, *row)

        def boom(s, *row):
            raise RuntimeError("boom")

        monkeypatch.setitem(verify.MARGINS, "moment_ordering", spy)
        monkeypatch.setitem(verify.MARGINS, "moment_interpolation", boom)
        with pytest.raises(RuntimeError):
            verify._sweep("disk", spec, SMALL, ids=self.IDS)
        assert filled and filled[-1] > 0
        assert spec not in verify._moment_memo
        assert spec not in verify._riesz_memo


#: families that compute a catalog bound in place, with their public bound
GATED = ("eq224_ratio", "cor32_abhh", "eq36_next", "eq37_discrim")


class TestIndexGates:
    """The index families that compute a catalog bound in place run its
    validity gate once per family, at the first row of each row group."""

    @pytest.fixture(scope="class")
    def dim11(self):
        return spectra.Spectrum(
            dimension=11, eigenvalues=np.arange(1.0, 60.0),
            complete_below=60.0, domain=spectra.DomainSpec("file", 11))

    def test_dimension_11_raises(self, dim11):
        with pytest.raises(ValidityError, match=r"d=11 exceeds the checked "
                                                r"range 1\.\.10"):
            verify.run_suite({"d11": dim11}, SMALL)

    @pytest.mark.parametrize("check_id", GATED)
    def test_dimension_11_raises_before_any_point(self, dim11, check_id,
                                                   monkeypatch):
        calls = []
        monkeypatch.setitem(verify.MARGINS, check_id,
                            lambda s, *row: calls.append(row))
        with pytest.raises(ValidityError, match="d=11 exceeds"):
            verify._sweep("d11", dim11, SMALL,
                          ids={check_id})
        assert calls == []

    @pytest.mark.parametrize("check_id, bad_rows, message", [
        ("eq224_ratio", [(0, k) for k in range(5)], "j must be a positive"),
        ("cor32_abhh", [(3,)], r"requires k >= 4\.0"),    # d = 2
        ("eq36_next", [(0,), (1,)], "k must be >= 1"),
    ])
    def test_group_outside_range_raises_first(self, small_specs, monkeypatch,
                                              check_id, bad_rows, message):
        # the bad group is appended after the family's genuine groups
        spec = small_specs["square"]
        build = verify._build_points
        calls = []

        def with_bad_group(s, cfg, n_z, grids=None):
            out = []
            for cid, grid, points in build(s, cfg, n_z, grids):
                if cid == check_id:
                    bad_group = ((), list(zip(*bad_rows)), ())
                    points = verify._Points(cid, [*points.groups, bad_group])
                out.append((cid, grid, points))
            return out

        monkeypatch.setattr(verify, "_build_points", with_bad_group)
        monkeypatch.setitem(verify.MARGINS, check_id,
                            lambda s, *row: calls.append(row) or 1.0)
        with pytest.raises(ValidityError, match=message):
            verify._sweep("square", spec, SMALL,
                          ids={check_id})
        assert calls == []

    def _gate_calls(self, monkeypatch):
        calls = {}
        for check_id in GATED:
            gate = verify._GATES[check_id]

            def spy(s, *row, check_id=check_id, gate=gate):
                calls.setdefault(check_id, []).append(row)
                return gate(s, *row)

            monkeypatch.setitem(verify._GATES, check_id, spy)
        return calls

    def test_each_family_gates_its_edges_once(self, small_specs,
                                              monkeypatch):
        spec = small_specs["square"]
        n = len(spec)
        calls = self._gate_calls(monkeypatch)
        verify._sweep("square", spec, SMALL)
        j_list = verify._index_list(n, SMALL.j_count)
        assert set(calls) == set(GATED)
        assert calls["eq224_ratio"] == [(j, j) for j in j_list if j < n]
        assert calls["cor32_abhh"] == calls["eq36_next"] == [(4,)]   # d = 2
        assert calls["eq37_discrim"] == [(1, "lower")]

    def test_restricted_sweep_runs_only_its_gates(self, small_specs,
                                                  monkeypatch):
        calls = self._gate_calls(monkeypatch)
        verify._sweep("square", small_specs["square"], SMALL,
                      ids={"cor32_abhh", "yang_simplified"})
        assert calls == {"cor32_abhh": [(4,)]}


class TestStreamedPoints:
    """Families are lazy sequences: sized, re-iterable, never materialised."""

    def test_len_matches_iteration_and_passes_repeat(self, small_specs):
        for spec in small_specs.values():
            for twin in (spec, verify.corrupt_spectrum(spec)):
                families = verify._build_points(twin, SMALL, SMALL.z_points)
                assert {f[0] for f in families} == set(verify.MARGINS)
                for check_id, _, points in families:
                    first = list(points)
                    assert len(first) == len(points), check_id
                    assert list(points) == first, check_id

    def test_sweep_memory_is_bounded(self):
        # 7,861 eigenvalues and 63,785 points; one dict per point held at
        # once would peak above 10 MB
        spec = spectra.box_spectrum([1.0, 1.0], 1e5)
        tracemalloc.start()
        try:
            results = verify._sweep("square", spec, SMALL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(r[1] for r in results.values()) == 63_785
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_index_sweep_holds_no_per_eigenvalue_objects(self):
        # the index families read the arrays themselves; a Python float per
        # eigenvalue, for lambda_k and for each prefix array, would peak
        # near 1.4 MiB at n = 15,782
        spec = spectra.box_spectrum([1.0, 1.0], 2e5)
        riesz.eigensum_prefix(spec)
        riesz.square_prefix(spec)
        tracemalloc.start()
        try:
            results = verify._sweep("square", spec, SMALL,
                                    ids={"eq224_ratio", "eq37_discrim"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(spec) == 15_782
        assert set(results) == {"eq224_ratio", "eq37_discrim"}
        assert peak < 2**19, f"peak {peak / 2**20:.2f} MiB"


def _row_digest(specs, cfg):
    """SHA-256 over every family's rows, in order, on each spectrum and its
    twin: each row named by its margin's signature and written in the key
    order of ``oracles.POINT_KEYS``, so the digest does not depend on how
    the rows are laid out."""
    h = hashlib.sha256()
    for spec in specs.values():
        for twin in (spec, verify.corrupt_spectrum(spec)):
            for check_id, grid, points in verify._build_points(
                    twin, cfg, cfg.z_points):
                names = list(inspect.signature(
                    verify.MARGINS[check_id]).parameters)[1:]
                keys = oracles.POINT_KEYS[check_id]
                h.update(f"{check_id}|{grid}|{len(points)}\n".encode())
                for row in points:
                    named = dict(zip(names, row))
                    order = (keys[named["form"]] if isinstance(keys, dict)
                             else keys)
                    h.update(repr([named[k] for k in order]).encode())
    return h.hexdigest()


class TestGoldenRows:
    """Row membership and order of every family, pinned by digests taken
    from the row builder that wrote out each family's rows, its count and
    its parameter names by hand."""

    DIGESTS = {
        "default": "de7ddd80afad74d5ed12774feabf1874"
                   "5c8a5c66fb7b52999162a2fdf59b0518",
        "control": "d75b28440602b8918eeac5520826502c"
                   "30014a27cfe2e6390688e2767d4b2fe6",
        "nudged": "19e3cd40ef53c3adc2a29d67f7673dbc"
                  "d13a3a96edfa83a8a93d5e3233abdddb",
    }

    @pytest.fixture(scope="class")
    def default_specs(self):
        return verify.default_spectra()

    @pytest.mark.parametrize("case", ["default", "control"])
    def test_rows_match_digest(self, default_specs, case):
        cfg = verify.VerifyConfig()
        if case == "control":
            cfg = verify._control_config(cfg)
        assert _row_digest(default_specs, cfg) == self.DIGESTS[case]

    def test_sandwich_lower_rows_test_each_z(self, default_specs,
                                             monkeypatch):
        # the grid pair around cor23_sandwich's sigma = 2 threshold becomes
        # one z just above it and, after it, one just below it
        z_grid = verify.z_grid

        def nudged(spec, cfg, n=None):
            zs = z_grid(spec, cfg, n)
            thr = (1 + 4 / spec.dimension) * spec.lambda_1
            i = next(i for i, z in enumerate(zs) if z >= thr)
            zs[i - 1:i + 1] = [thr * (1 + 1e-9), thr * (1 - 1e-9)]
            return zs

        monkeypatch.setattr(verify, "z_grid", nudged)
        cfg = verify.VerifyConfig()
        assert _row_digest(default_specs, cfg) == self.DIGESTS["nudged"]
        spec = default_specs["square_1x1"]
        zs = verify.z_grid(spec, cfg)
        thr = (1 + 4 / spec.dimension) * spec.lambda_1
        assert any(a >= thr > b for a, b in zip(zs, zs[1:]))
        s_ge2 = [s for s in cfg.sigma_grid if s >= 2]
        want = []
        for s in s_ge2:
            thr = (1 + 2 * s / spec.dimension) * spec.lambda_1
            for z in zs:
                want.append((s, z, "upper"))
                if z >= thr:
                    want.append((s, z, "lower"))
        points = {c: p for c, _, p in verify._build_points(
            spec, cfg, cfg.z_points)}["cor23_sandwich"]
        assert list(points) == want
        assert len(points) == len(want)


def _bits(x):
    return struct.pack("<d", x)


INDEX_IDS = ("eq224_ratio", "yang_simplified", "cor32_abhh", "eq36_next",
             "eq37_discrim")


def _fresh(spec):
    """A copy of ``spec`` with nothing cached in ``_derived``."""
    return spectra.Spectrum(dimension=spec.dimension,
                            eigenvalues=spec.eigenvalues,
                            complete_below=spec.complete_below,
                            domain=spec.domain, volume=spec.volume)


def _assert_sweep_equals_dict_oracle(specs):
    """``_sweep`` gives the oracle's worst margin, bit for bit, and its
    witness, in its key order, on each spectrum and its twin."""
    for label, spec in specs.items():
        for twin in (spec, verify.corrupt_spectrum(spec)):
            got = verify._sweep(label, twin, SMALL)
            want = oracles.dict_sweep(label, twin, SMALL)
            assert list(got) == list(want)
            assert set(got) == set(verify.MARGINS)
            for check_id, (grid, n, worst, witness) in want.items():
                g_grid, g_n, g_worst, g_witness = got[check_id]
                assert (g_grid, g_n) == (grid, n), check_id
                assert _bits(g_worst) == _bits(worst), check_id
                assert list(g_witness.items()) == list(witness.items()), \
                    check_id


class TestPointRows:
    """Each point is a tuple of positional arguments; the sweep gives what
    it gave when each point was a keyword dict."""

    def test_sweep_equals_dict_oracle(self, small_specs):
        _assert_sweep_equals_dict_oracle(small_specs)

    def test_positional_equals_keyword_call(self, small_specs):
        shapes = set()
        for spec in small_specs.values():
            for twin in (spec, verify.corrupt_spectrum(spec)):
                for check_id, _, points in verify._build_points(
                        twin, SMALL, SMALL.z_points):
                    fn = verify.MARGINS[check_id]
                    for row in points:
                        m = fn(twin, *row)
                        named = dict(zip(points.names, row))
                        assert _bits(fn(twin, **named)) == _bits(m), \
                            (check_id, row)
                        params = points.params(row)
                        assert _bits(fn(twin, **params)) == _bits(m), \
                            (check_id, row)
                        assert list(params.items()) == list(
                            oracles.point_dict(check_id, fn, row).items())
                        if check_id == "hoelder_chain":
                            shapes.add(len(row))
        assert shapes == {3, 6}

    @pytest.mark.parametrize("check_id", INDEX_IDS)
    def test_index_margins_keep_their_bits(self, small_specs, check_id):
        # the 3-ball's exponent 2/d = 2/3 rounds, so an association change
        # shows in the last bits.  Each margin is compared on a fresh
        # spectrum, whose first call builds the operand views, and again
        # after a full sweep.
        ball3 = spectra.ball_spectrum(3, 1.0, 400.0)
        fn = verify.MARGINS[check_id]
        for spec in (*small_specs.values(), ball3):
            for twin in (spec, verify.corrupt_spectrum(spec)):
                rows = list({c: p for c, _, p in verify._build_points(
                    _fresh(twin), SMALL, SMALL.z_points)}[check_id])
                fresh = _fresh(twin)
                assert fresh._derived == {}
                for swept in (False, True):
                    if swept:
                        verify._sweep("twin", fresh, SMALL)
                    for row in rows:
                        assert _bits(fn(fresh, *row)) == _bits(
                            oracles.index_margin(check_id, fresh, *row)), \
                            (swept, row)
                    assert "operands" in fresh._derived

    def test_reevaluate_reproduces_index_witnesses(self, small_specs):
        specs = {**small_specs, "ball3": spectra.ball_spectrum(3, 1.0, 400.0)}
        for cfg in (SMALL, replace(SMALL, inject_corruption=True)):
            report = verify.run_suite(specs, cfg)
            for c in report.checks:
                if c.id not in INDEX_IDS:
                    continue
                label = c.witness["spectrum"]
                spec = specs[label.removeprefix("corrupted:")]
                if label.startswith("corrupted:"):
                    spec = verify.corrupt_spectrum(spec)
                for on in (_fresh(spec), spec):
                    assert _bits(verify.reevaluate(on, c.id, c.witness)) == \
                        _bits(c.worst_margin), (label, c.id)

    @pytest.mark.parametrize("nan_at", [1, 5])
    def test_nan_margin_raises(self, small_specs, monkeypatch, nan_at):
        # NaN compares false with everything, so it would never become the
        # minimum: with every margin NaN the check passed at worst = inf
        # with an empty witness, otherwise on the other points
        margin = verify.MARGINS["yang_simplified"]

        def nan_from(s, *row):
            return math.nan if row[0] >= nan_at else margin(s, *row)

        spec = small_specs["disk"]
        monkeypatch.setitem(verify.MARGINS, "yang_simplified", nan_from)
        with pytest.raises(DomainError, match=r"yang_simplified .*NaN.*"
                                              rf"'disk'.*\{{'k': {nan_at}\}}"):
            verify.sweep({"disk": spec}, SMALL, ids={"yang_simplified"})
        assert spec not in verify._riesz_memo

    def test_arithmetic_error_reported_before_nan(self, small_specs,
                                                  monkeypatch):
        # yang_simplified is swept before hoelder_chain
        def nan(s, *row):
            return math.nan

        def overflow(s, *row):
            raise OverflowError("boom")

        monkeypatch.setitem(verify.MARGINS, "yang_simplified", nan)
        monkeypatch.setitem(verify.MARGINS, "hoelder_chain", overflow)
        with pytest.raises(DomainError, match="hoelder_chain cannot be "
                                              "evaluated"):
            verify._sweep("disk", small_specs["disk"], SMALL,
                          ids={"yang_simplified", "hoelder_chain"})

    def test_overflow_names_the_point(self, small_specs, monkeypatch):
        def overflow(s, *row):
            raise OverflowError("boom")

        monkeypatch.setitem(verify.MARGINS, "hoelder_chain", overflow)
        with pytest.raises(DomainError, match=r"hoelder_chain cannot be "
                           r"evaluated on 'square' at \{'form': 'logconvex', "
                           r"'z': .*, 'sigma0': "):
            verify._sweep("square", small_specs["square"], SMALL,
                          ids={"hoelder_chain"})


class TestChunks:
    """``_sweep`` computes margins ``_CHUNK`` rows at a time; at any chunk
    size it keeps the first smallest margin, names the first NaN row and
    the row that raised, as a sweep one row at a time does."""

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_sweep_equals_dict_oracle(self, small_specs, monkeypatch, chunk):
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        _assert_sweep_equals_dict_oracle(small_specs)

    @staticmethod
    def _yang(monkeypatch, chunk, margin):
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        monkeypatch.setitem(verify.MARGINS, "yang_simplified", margin)

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("first, second", [(-1.0, -1.0), (0.0, -0.0)])
    def test_equal_minima_across_a_boundary_keep_the_first(
            self, small_specs, monkeypatch, chunk, first, second):
        # in chunks of 3 rows, k = 2 is in the first and k = 4 in the second
        self._yang(monkeypatch, chunk, lambda s, k: {2: first, 4: second}
                   .get(k, 1.0))
        res = verify._sweep("disk", small_specs["disk"], SMALL,
                            ids={"yang_simplified"})
        _, _, worst, witness = res["yang_simplified"]
        assert _bits(worst) == _bits(first)
        assert witness == {"k": 2, "spectrum": "disk"}

    def test_nan_only_in_a_later_chunk(self, small_specs, monkeypatch):
        self._yang(monkeypatch, 3, lambda s, k: math.nan if k in (5, 7)
                   else 1.0 / k)
        with pytest.raises(DomainError) as info:
            verify._sweep("disk", small_specs["disk"], SMALL,
                          ids={"yang_simplified"})
        assert str(info.value) == ("yang_simplified has a NaN margin on "
                                   "'disk' at {'k': 5}")

    def test_overflow_inside_a_chunk_names_its_row(self, small_specs,
                                                   monkeypatch):
        calls = []

        def overflow_at_5(s, k):
            calls.append(k)
            if k == 5:
                raise OverflowError("boom")
            return 1.0

        self._yang(monkeypatch, 3, overflow_at_5)
        with pytest.raises(DomainError) as info:
            verify._sweep("disk", small_specs["disk"], SMALL,
                          ids={"yang_simplified"})
        assert str(info.value) == ("yang_simplified cannot be evaluated on "
                                   "'disk' at {'k': 5}: "
                                   "OverflowError('boom')")
        assert isinstance(info.value.__cause__, OverflowError)
        assert calls == [1, 2, 3, 4, 5, 4, 5]


class TestCorruption:
    def test_corrupt_spectrum_is_valid_but_wrong(self, small_specs):
        twin = verify.corrupt_spectrum(small_specs["square"])
        assert twin.lambda_1 == pytest.approx(
            0.1 * small_specs["square"].lambda_1)
        assert len(twin) == len(small_specs["square"])

    def test_injected_corruption_fails_suite(self, small_specs):
        cfg = verify.VerifyConfig(
            z_points=15, j_count=3, k_count=5, hoelder_samples=5,
            moment_k_count=2, control_z_points=10, control_j_count=2,
            inject_corruption=True)
        rep = verify.run_suite({"square": small_specs["square"]}, cfg)
        assert not rep.all_passed
        assert any(not c.passed for c in rep.checks)


class TestConfig:
    def test_empty_spec_set_succeeds(self):
        rep = verify.run_suite({}, SMALL)
        assert rep.all_passed
        assert rep.checks == []

    def test_z_max_beyond_completeness(self, small_specs):
        cfg = verify.VerifyConfig(z_max=10_000.0)
        with pytest.raises(ConfigError):
            verify.run_suite(small_specs, cfg)

    def test_z_grid_rejects_nan_z_max(self, small_specs):
        # run_suite rejects a non-finite z_max first, so the CLI never
        # reaches this gate
        with pytest.raises(ConfigError):
            verify.z_grid(small_specs["square"],
                          verify.VerifyConfig(z_max=math.nan))

    def test_z_grid_avoids_eigenvalues(self, small_specs):
        spec = small_specs["square"]
        zs = verify.z_grid(spec, SMALL)
        assert len(zs) == SMALL.z_points
        for z in zs:
            assert spec.lambda_1 < z <= spec.complete_below
            gap = min(abs(z - ev) for ev in spec.eigenvalues)
            assert gap >= 1e-10 * z

    def test_z_grid_nudges_off_eigenvalues_on_the_grid(self, small_specs):
        # eigenvalues placed on the raw log grid force the nudge loop; the
        # result must equal the per-z scalar search
        spec = small_specs["square"]
        raw = np.geomspace(spec.lambda_1 * (1 + 1e-6),
                           SMALL.z_max_frac * spec.complete_below,
                           SMALL.z_points)
        ev = np.sort(np.concatenate(
            [spec.eigenvalues, raw[3:20:2], raw[5:6] * (1 + 3e-9)]))
        onto = spectra.Spectrum(dimension=2, eigenvalues=ev,
                                complete_below=spec.complete_below,
                                domain=spectra.DomainSpec("file", 2))

        def gap(z):
            return float(np.min(np.abs(ev - z)))

        expected = []
        for z in raw:
            while gap(z) < 1e-9 * z:
                z *= 1 + 2e-9
            expected.append(float(min(z, onto.complete_below)))
        zs = verify.z_grid(onto, SMALL)
        assert zs == expected
        assert zs != raw.tolist()
        assert all(gap(z) >= 1e-9 * z for z in zs)

    def test_control_grid_respects_z_max(self, small_specs, monkeypatch):
        z_max = 300.0
        seen = []
        z_grid = verify.z_grid

        def spy(spec, cfg, n=None):
            zs = z_grid(spec, cfg, n)
            seen.append((cfg.z_points, max(zs)))
            return zs

        monkeypatch.setattr(verify, "z_grid", spy)
        cfg = verify.VerifyConfig(
            z_points=15, z_max=z_max, j_count=3, k_count=5,
            hoelder_samples=5, moment_k_count=2, control_z_points=10,
            control_j_count=2)
        verify.run_suite(small_specs, cfg)
        controls = [top for n, top in seen if n == cfg.control_z_points]
        assert len(controls) == len(small_specs)
        assert all(top <= z_max for _, top in seen)

    def test_bad_z_points(self, small_specs):
        with pytest.raises(ConfigError):
            verify.run_suite(small_specs, verify.VerifyConfig(z_points=1))

    @pytest.mark.parametrize("field, value, error", [
        ("z_points", 2.5, ConfigError),
        ("z_points", verify.MAX_Z_POINTS + 1, ResourceLimitError),
        ("control_z_points", 0, ConfigError),
        ("control_z_points", -4, ConfigError),
        ("control_z_points", 10**6, ResourceLimitError),
        ("j_count", -1, ConfigError),
        ("k_count", -1, ConfigError),
        ("hoelder_samples", -1, ConfigError),
        ("moment_k_count", -1, ConfigError),
        ("control_j_count", -1, ConfigError),
        ("j_count", 3.0, ConfigError),
        ("control_z_points", "40", ConfigError),
    ])
    def test_bad_count_is_named(self, small_specs, field, value, error):
        # refused before any sweep: numpy raised ValueError or TypeError
        # for some, and 10^6 control points passed
        cfg = replace(SMALL, **{field: value})
        with pytest.raises(error, match=field):
            verify.run_suite(small_specs, cfg)

    def test_zero_counts_pass(self, small_specs):
        cfg = replace(SMALL, j_count=0, k_count=0, hoelder_samples=0,
                      moment_k_count=0, control_j_count=0,
                      control_z_points=verify.MAX_Z_POINTS)
        verify.check_config(cfg)
        verify.check_config(verify.VerifyConfig())


@pytest.fixture(scope="module")
def square_pi_200():
    return spectra.box_spectrum([math.pi, math.pi], 200.0)


class TestHandAnchors:
    """Hand-enumerated instances on the [pi, pi] square spectrum."""

    def test_thm21_instance(self, square_pi_200):
        # R_1(6) = 6 >= (3/2) R_2(6)/6 = 4.5
        m = verify.margin_thm21_diff2(square_pi_200, 2.0, 6.0)
        assert m == pytest.approx((6 - 4.5) / 6, rel=1e-12)

    def test_counting_chain_instance(self, square_pi_200):
        # N(9) R_2(9) >= R_1(9)^2: 4 * 82 >= 16^2
        m = verify.margin_hoelder_chain(square_pi_200, "counting", z=9.0,
                                        sigma=2.0)
        assert m == pytest.approx((4 - 256 / 82) / 4, rel=1e-12)

    def test_eq224_instance(self, square_pi_200):
        # lambda_6 = 10 <= 3 mean_5 (5/5)^1 = 18
        m = verify.margin_eq224_ratio(square_pi_200, 5, 5)
        assert m == pytest.approx((18 - 10) / 18, rel=1e-12)

    def test_eq37_matches_means_expression(self, square_pi_200):
        spec = square_pi_200
        for twin in (spec, verify.corrupt_spectrum(spec)):
            for k in range(1, len(twin) + 1):
                m = riesz.means(twin, k)
                lo, hi = bounds.mean_sq_envelope(twin.dimension, m.mean)
                assert verify.margin_eq37_discrim(twin, k, "lower") == \
                    verify._margin(m.mean_sq, lo)
                assert verify.margin_eq37_discrim(twin, k, "upper") == \
                    verify._margin(hi, m.mean_sq)

    def test_eq37_k_range_guard(self, square_pi_200):
        for k in (0, len(square_pi_200) + 1):
            with pytest.raises(DomainError):
                verify.margin_eq37_discrim(square_pi_200, k, "lower")

    def test_eq37_equality_on_flat_spectrum(self):
        import numpy as np
        flat = spectra.Spectrum(
            dimension=2, eigenvalues=np.array([3.0, 3.0, 3.0, 3.0]),
            complete_below=10.0, domain=spectra.DomainSpec("file", 2))
        assert verify.margin_eq37_discrim(flat, 4, "lower") == \
            pytest.approx(0.0, abs=1e-14)


class TestMoments:
    """``_moment`` computes only the mean it compares, and gives the bits
    of the matching ``riesz.means`` field."""

    ORDERS = (-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0)

    def test_equals_means_field(self, square_pi_200):
        for spec in (square_pi_200, verify.corrupt_spectrum(square_pi_200)):
            for k in range(1, len(spec) + 1):
                m = riesz.means(spec, k, sigma_list=self.ORDERS[2:])
                fields = {-1.0: m.harmonic, 0.0: m.geometric,
                          **m.power_means}
                for sigma in self.ORDERS:
                    assert verify._moment(spec, k, sigma) == fields[sigma], \
                        (k, sigma)

    def test_guards(self, square_pi_200):
        for k in (0, len(square_pi_200) + 1):
            for sigma in self.ORDERS:
                with pytest.raises(DomainError):
                    verify._moment(square_pi_200, k, sigma)
        with pytest.raises(DomainError):
            verify._moment(square_pi_200, 3, 2.5)


class TestBadWitness:
    """``reevaluate`` of a witness outside a bound's validity region
    raises, whether or not the memos already hold that dimension."""

    @pytest.mark.parametrize("check_id, witness, error", [
        ("cor32_abhh", {"k": 3}, ValidityError),      # below k >= 4 at d = 2
        ("eq224_ratio", {"j": 5, "k": 3}, ValidityError),         # j > k
        ("eq224_ratio", {"j": 1.5, "k": 3}, ValidityError),
        ("eq224_ratio", {"j": math.nan, "k": 3}, ValidityError),
        ("eq224_ratio", {"j": 1, "k": math.inf}, ValidityError),
        ("cor31_mean_ratio", {"j": 2.5, "k": 40}, ValidityError),
        ("cor31_mean_ratio", {"j": 10, "k": 12}, ValidityError),
        ("eq37_discrim", {"k": 0, "form": "lower"}, DomainError),
        ("eq37_discrim", {"k": 10**6, "form": "upper"}, DomainError),
        ("moment_ordering", {"k": 0, "s_lo": 0.5, "s_hi": 1.0},
         DomainError),
        ("moment_interpolation",
         {"k": 10**6, "mu": 0.5, "sigma": 1.0, "tau": 2.0}, DomainError),
        ("yang_simplified", {"k": 2.5}, ValidityError),
        ("cor29_r2", {"j": 2.5, "z": 150.0}, ValidityError),
        ("eq36_next", {"k": None}, DomainError),
    ])
    def test_raises(self, square_pi_200, check_id, witness, error):
        spec = square_pi_200
        verify.reevaluate(spec, "cor32_abhh", {"k": 10})   # warm the memos
        for _ in range(2):
            with pytest.raises(error):
                verify.reevaluate(spec, check_id, witness)

    @pytest.mark.parametrize("check_id, witness, message", [
        ("no_such_check", {"k": 3}, "unknown check id 'no_such_check'"),
        ("eq224_ratio", {"j": 1}, "eq224_ratio: witness lacks 'k'"),
        ("thm21_diff1", {"sigma": 1.0}, "thm21_diff1: witness lacks 'z'"),
        ("eq224_ratio", {"j": 1, "k": 3, "z": 1.0},
         "eq224_ratio: unexpected witness key 'z'"),
        ("hoelder_chain", {"sigma": 2.0, "z": 50.0},
         "hoelder_chain: witness lacks 'form'"),
        ("hoelder_chain", {"form": "counting", "z": 50.0},
         "hoelder_chain: witness lacks 'sigma'"),
        ("hoelder_chain", {"form": "logconvex", "sigma": 1.0, "z": 50.0,
                           "sigma0": 0.5, "sigma1": 1.0, "sigma2": 2.0},
         "hoelder_chain: unexpected witness key 'sigma'"),
        ("hoelder_chain", {"form": "bogus", "sigma": 2.0, "z": 50.0},
         "hoelder_chain: unknown form 'bogus'"),
        ("cor23_sandwich", {"form": "bogus", "sigma": 2.0, "z": 50.0},
         "cor23_sandwich: unknown form 'bogus'"),
        ("cor26_lower", {"form": "bogus", "sigma": 1.0, "z": 50.0},
         "cor26_lower: unknown form 'bogus'"),
        ("eq37_discrim", {"form": "bogus", "k": 3},
         "eq37_discrim: unknown form 'bogus'"),
    ])
    def test_malformed(self, square_pi_200, check_id, witness, message):
        # an unknown check, a missing or extra key, or a form the family
        # does not have: DomainError, never another family's margin
        with pytest.raises(DomainError, match=f"^{message}$"):
            verify.reevaluate(square_pi_200, check_id, witness)

    @pytest.mark.parametrize("check_id, witness, key", [
        ("yang_simplified", {"k": 3.0}, "k"),
        ("eq224_ratio", {"j": 2, "k": 3.0}, "k"),
        ("cor32_abhh", {"k": 10.0}, "k"),
        ("eq37_discrim", {"k": 3.0, "form": "lower"}, "k"),
        ("cor31_mean_ratio", {"j": 2.0, "k": 40}, "j"),
    ])
    def test_float_index(self, square_pi_200, check_id, witness, key):
        # an integral float is no index: DomainError naming check and key
        with pytest.raises(DomainError,
                           match=f"^{check_id}: {key} must be an integer"):
            verify.reevaluate(square_pi_200, check_id, witness)

    @pytest.mark.parametrize("check_id, witness", [
        ("cor29_r2", {"j": 0, "z": 150.0}),
        ("yang_simplified", {"k": 0}),
        ("yang_simplified", {"k": -3}),
        ("eq36_next", {"k": 141}),        # k = n reads lambda_{n+1}
        ("cor32_abhh", {"k": 142}),
    ])
    def test_index_outside_spectrum(self, square_pi_200, check_id, witness):
        assert len(square_pi_200) == 141
        with pytest.raises(DomainError):
            verify.reevaluate(square_pi_200, check_id, witness)

    @pytest.mark.parametrize("check_id, witness, cause", [
        ("hoelder_chain", {"form": "logconvex", "z": 150.0, "sigma0": 1.0,
                           "sigma1": 1.0, "sigma2": 1.0}, "ZeroDivisionError"),
        ("thm21_deriv1", {"sigma": 1.5, "z": 150.0, "h": 0.0},
         "ZeroDivisionError"),
        ("thm21_diff1", {"sigma": math.inf, "z": 150.0}, "NaN margin"),
    ], ids=["equal-sigmas", "zero-step", "infinite-sigma"])
    def test_no_verdict(self, square_pi_200, check_id, witness, cause):
        # a margin whose arithmetic raises, or a NaN margin, is no verdict:
        # DomainError naming the check and the point, as in the sweep
        with pytest.raises(DomainError, match=f"^{check_id} ") as got:
            verify.reevaluate(square_pi_200, check_id, witness)
        assert str(witness) in str(got.value)
        assert cause in str(got.value)
