import json
import math

import numpy as np
import pytest

import reference
from smoothcert.records import (CertificationRecord, RecordWriter, encode_record,
                                read_records)
from smoothcert.report import (accuracy_curve, bernstein_lower_bound, project_record,
                               projected_curve, render_json, render_tsv)


def record(idx=0, true_label=0, outcome="certified", predicted=0, radius=1.0,
           pa=0.9, counts=None, n=1000, alpha=0.001):
    if outcome == "abstain":
        predicted_label, radius, pa = predicted, None, None
    else:
        predicted_label = predicted
    return CertificationRecord(example_index=idx, true_label=true_label,
                               outcome=outcome, predicted_label=predicted_label,
                               radius=radius, pa_lower=pa, counts=counts,
                               sigma=0.5, n0=100, n=n, alpha=alpha, seed=0,
                               wall_time_ms=1.0)


def certified_accuracy(records, r):
    """The approximate certified accuracy column of accuracy_curve at radius r."""
    return accuracy_curve(records, [r])[0][1]


class TestCertifiedAccuracy:
    def test_all_abstain_is_zero(self):
        records = [record(i, outcome="abstain") for i in range(5)]
        for r in [0.0, 0.5, 2.0]:
            assert certified_accuracy(records, r) == 0.0

    def test_counting(self):
        records = [record(0, radius=1.0), record(1, radius=0.2),
                   record(2, true_label=1, predicted=0, radius=0.8)]
        assert certified_accuracy(records, 0.5) == pytest.approx(1 / 3)
        assert certified_accuracy(records, 0.0) == pytest.approx(2 / 3)
        assert certified_accuracy(records, 1.5) == 0.0

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            certified_accuracy([], 0.0)

    def test_infinite_radius_counts_at_every_r(self):
        records = [record(0, radius=math.inf)]
        assert certified_accuracy(records, 1e9) == 1.0


class TestBernsteinLowerBound:
    def test_vanishing_corrections(self):
        """As alpha -> 0 and rho -> 1 the bound tends to Y/m."""
        assert bernstein_lower_bound(1000, 1000, 1e-12, 1 - 1e-12) == \
            pytest.approx(1.0, abs=1e-5)

    def test_frozen_headline_value(self):
        """450/500 at alpha = rho = 0.001, frozen from the mpmath oracle."""
        assert bernstein_lower_bound(450, 500, 0.001, 0.001) == pytest.approx(
            0.8900309679304643, abs=1e-12)

    def test_zero_hits_clamped(self):
        assert bernstein_lower_bound(0, 100, 0.01, 0.01) == 0.0

    def test_matches_oracle_on_grid(self):
        """1e-12 agreement with the high-precision oracle across parameters."""
        for y, m in [(0, 10), (5, 10), (450, 500), (499, 500), (123, 777)]:
            for alpha in [0.001, 0.01, 0.1]:
                for rho in [0.001, 0.05]:
                    assert bernstein_lower_bound(y, m, alpha, rho) == pytest.approx(
                        reference.bernstein_ref(y, m, alpha, rho), abs=1e-12)

    def test_monotonicity(self):
        assert bernstein_lower_bound(400, 500, 0.01, 0.001) <= \
            bernstein_lower_bound(450, 500, 0.01, 0.001)
        assert bernstein_lower_bound(450, 500, 0.01, 0.01) >= \
            bernstein_lower_bound(450, 500, 0.01, 0.001)
        assert bernstein_lower_bound(450, 500, 0.05, 0.001) <= \
            bernstein_lower_bound(450, 500, 0.01, 0.001)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bernstein_lower_bound(5, 4, 0.01, 0.01)
        with pytest.raises(ValueError):
            bernstein_lower_bound(4, 5, 0.6, 0.01)


class TestAccuracyCurve:
    def test_single_record_threshold(self):
        rows = accuracy_curve([record(0, radius=1.0)], [0.0, 0.5, 1.0, 1.5])
        assert [acc for _, acc, _ in rows] == [1.0, 1.0, 1.0, 0.0]

    def test_nonincreasing_and_bounded(self):
        rng = np.random.default_rng(4)
        records = [record(i, radius=float(rng.uniform(0, 2)),
                          outcome="certified" if rng.random() < 0.8 else "abstain")
                   for i in range(100)]
        rows = accuracy_curve(records, [0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
        accs = [acc for _, acc, _ in rows]
        assert all(b <= a for a, b in zip(accs, accs[1:]))
        assert all(lower <= acc for _, acc, lower in rows)

    def test_unsorted_radii_rejected(self):
        with pytest.raises(ValueError):
            accuracy_curve([record(0)], [1.0, 0.5])

    def test_mixed_alpha_rejected(self):
        with pytest.raises(ValueError):
            accuracy_curve([record(0, alpha=0.001), record(1, alpha=0.01)], [0.0])

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            accuracy_curve([record(0)], [0.0, math.nan])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        """Every row equals the brute-force hit fraction and bernstein_lower_bound
        at its radius, on records with abstains, wrong labels and infinite radii, at
        radii that are negative, repeated, infinite or equal to a record's."""
        rng = np.random.default_rng(seed)
        pool = [0.0, 0.25, 0.5, math.inf]
        records = []
        for i in range(int(rng.integers(1, 60))):
            radius = (pool[rng.integers(len(pool))] if rng.random() < 0.4
                      else float(rng.uniform(0.0, 2.0)))
            records.append(record(i, outcome="abstain" if rng.random() < 0.2 else "certified",
                                  true_label=int(rng.integers(2)), radius=radius))
        radii = sorted([float(rng.uniform(-1.0, 3.0)) for _ in range(10)]
                       + pool + [-0.5, 0.25, -math.inf]
                       + [rec.radius for rec in records[:5] if rec.radius is not None])
        rows = accuracy_curve(records, radii, rho=0.01)
        expected = []
        for r in radii:
            hits = sum(rec.correct and rec.radius >= r for rec in records)
            expected.append((r, hits / len(records),
                             bernstein_lower_bound(hits, len(records), 0.001, 0.01)))
        assert rows == expected
        assert all(type(v) is float for row in rows for v in row)

    def test_abstention_accounting(self):
        """accuracy(0) + abstain fraction + wrong fraction = 1 exactly."""
        records = [record(0, radius=0.7), record(1, outcome="abstain"),
                   record(2, true_label=1, predicted=0, radius=0.3), record(3, radius=0.1)]
        acc0 = certified_accuracy(records, 0.0)
        abstain = sum(r.outcome == "abstain" for r in records) / len(records)
        wrong = sum(r.outcome == "certified" and r.predicted_label != r.true_label
                    for r in records) / len(records)
        assert acc0 + abstain + wrong == 1.0


class TestProjectedCurve:
    def test_identity_at_original_n(self):
        rec = record(0, radius=0.5 * reference.normal_quantile(0.93),
                     pa=0.93, counts={0: 980, 1: 20}, n=1000)
        projected = project_record(rec, 1000)
        assert projected.outcome == "certified"
        # re-deriving the interval from the same counts tightens nothing
        from smoothcert.statfun import clopper_pearson_lower
        assert projected.pa_lower == pytest.approx(
            clopper_pearson_lower(980, 1000, rec.alpha), abs=1e-12)

    def test_radius_nondecreasing_in_sample_budget(self):
        rec = record(0, radius=0.4, pa=0.8, counts={0: 900, 1: 100}, n=1000)
        radii = []
        for n_new in [100, 1000, 10_000, 100_000]:
            projected = project_record(rec, n_new)
            radii.append(-1.0 if projected.radius is None else projected.radius)
        assert all(b >= a for a, b in zip(radii, radii[1:]))

    def test_single_sample_always_abstains(self):
        """CP lower at k = n = 1 is alpha < 1/2, so projection to n = 1 abstains."""
        rec = record(0, radius=0.4, pa=0.8, counts={0: 900, 1: 100}, n=1000)
        assert project_record(rec, 1).outcome == "abstain"

    def test_abstaining_record_can_become_certified(self):
        rec = record(0, outcome="abstain", predicted=0, counts={0: 55, 1: 45},
                     n=100, alpha=0.001)
        revived = project_record(rec, 100_000)
        assert revived.outcome == "certified"

    def test_missing_counts_is_an_error(self):
        with pytest.raises(ValueError, match="counts"):
            projected_curve([record(0)], 100, [0.0])

    def test_curve_shape(self):
        records = [record(i, radius=0.3, pa=0.75, counts={0: 750 + i, 1: 250 - i})
                   for i in range(20)]
        small = projected_curve(records, 100, [0.0, 0.25])
        large = projected_curve(records, 100_000, [0.0, 0.25])
        assert large[1][1] >= small[1][1]


class TestRendering:
    def test_tsv_layout(self):
        text = render_tsv([(0.0, 1.0, 0.9), (0.5, 0.5, 0.4)])
        lines = text.strip().split("\n")
        assert lines[0] == "radius\tcertified_accuracy\tbernstein_lower_bound"
        assert lines[1].split("\t") == ["0.000000", "1.000000", "0.900000"]

    def test_json_mirrors_columns(self):
        rows = json.loads(render_json([(0.0, 1.0, 0.9)]))
        assert rows == [{"radius": 0.0, "certified_accuracy": 1.0,
                         "bernstein_lower_bound": 0.9}]

    @pytest.mark.parametrize("seed", range(10))
    def test_json_bytes_equal_json_dumps(self, seed):
        """render_json writes exactly what json.dumps(..., indent=2) would,
        Infinity, -Infinity, NaN and signed zero included."""
        rng = np.random.default_rng(seed)
        pool = [0.0, -0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan]
        rows = [tuple(pool[rng.integers(len(pool))] if rng.random() < 0.5
                      else float(rng.uniform(-10.0, 10.0)) for _ in range(3))
                for _ in range(int(rng.integers(0, 12)))]
        objects = [{"radius": r, "certified_accuracy": acc, "bernstein_lower_bound": lower}
                   for r, acc, lower in rows]
        assert render_json(rows) == json.dumps(objects, indent=2) + "\n"

    def test_json_empty(self):
        assert render_json([]) == json.dumps([], indent=2) + "\n"


class TestRecordCodec:
    @staticmethod
    def round_trip(tmp_path, rec):
        path = tmp_path / "records.jsonl"
        with RecordWriter(path) as writer:
            writer.write(rec)
        [back] = read_records(path)
        return back

    def test_round_trip(self, tmp_path):
        rec = record(3, radius=1.25, pa=0.97, counts={0: 990, 1: 10})
        assert self.round_trip(tmp_path, rec) == rec

    def test_round_trip_abstain(self, tmp_path):
        rec = record(4, outcome="abstain", predicted=1)
        assert self.round_trip(tmp_path, rec) == rec

    def test_infinite_radius_encoded_as_string(self, tmp_path):
        rec = record(5, radius=math.inf)
        assert '"radius": "inf"' in encode_record(rec)
        assert self.round_trip(tmp_path, rec).radius == math.inf

    def test_frozen_field_order(self):
        import json
        keys = list(json.loads(encode_record(record(0))))
        assert keys == ["example_index", "true_label", "outcome", "predicted_label",
                        "radius", "pa_lower", "sigma", "n0", "n", "alpha", "seed",
                        "wall_time_ms"]

    def test_invalid_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CertificationRecord(example_index=0, true_label=0, outcome="certified",
                                predicted_label=None, radius=None, pa_lower=None,
                                counts=None, sigma=1.0, n0=10, n=100, alpha=0.001,
                                seed=0, wall_time_ms=0.0)
        path = tmp_path / "short.jsonl"
        path.write_text('{"schema_version": 1}\n{"example_index": 0}\n')
        with pytest.raises(ValueError, match="short.jsonl:2: record missing fields"):
            read_records(path)

    @pytest.mark.parametrize("kind", ["prediction", "attack"])
    def test_reader_rejects_other_kinds_naming_them(self, tmp_path, kind):
        import json
        path = tmp_path / f"{kind}.jsonl"
        with RecordWriter(path, kind=kind) as writer:
            writer.write({"example_index": 0, "true_label": 1})
        assert path.read_text() == (json.dumps({"schema_version": 1, "kind": kind})
                                    + '\n{"example_index": 0, "true_label": 1}\n')
        with pytest.raises(ValueError, match=f"{kind} records"):
            read_records(path)
