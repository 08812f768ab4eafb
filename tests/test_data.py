import json
import logging
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikekit import data
from spikekit.data import (
    EVENT_HEADER,
    Dataset,
    bin_events,
    gen_poisson_patterns,
    load_events_csv,
)
from spikekit.errors import ConfigError, DataError, EmptySampleError

EVENTS_DIR = Path(__file__).parent / "data" / "events"


def _poisson_oracle(class_count, neurons, timesteps, rate_lo, rate_hi, n_per_class, seed,
                    split):
    """The per-class draw of a fresh uniform array, then a bool comparison of it."""
    templates = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))).uniform(
        rate_lo, rate_hi, size=(class_count, neurons))
    draw_rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(1 if split == "train" else 2,)))
    data = np.empty((class_count * n_per_class, neurons, timesteps), dtype=np.uint8)
    for c in range(class_count):
        uniforms = draw_rng.random((n_per_class, neurons, timesteps))
        data[c * n_per_class:(c + 1) * n_per_class] = uniforms < templates[c][None, :, None]
    return data


class TestPoissonGeneration:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 7),
                           st.integers(1, 6)),
           rates=st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0)).filter(lambda r: r[0] < r[1]),
           seed=st.integers(0, 2**32 - 1), split=st.sampled_from(["train", "test"]))
    def test_bytes_match_the_per_class_oracle(self, shape, rates, seed, split):
        class_count, neurons, timesteps, n_per_class = shape
        args = (class_count, neurons, timesteps, *rates, n_per_class, seed, split)
        assert gen_poisson_patterns(*args).data.tobytes() == _poisson_oracle(*args).tobytes()

    def test_draws_reuse_one_class_buffer(self):
        # The tensor plus one class's float64 uniforms; a fresh uniform array
        # per class briefly holds two classes' draws.
        class_count, neurons, timesteps, n_per_class = 4, 64, 50, 40
        one_class = n_per_class * neurons * timesteps * 8
        tracemalloc.start()
        try:
            ds = gen_poisson_patterns(class_count, neurons, timesteps, 0.1, 0.9,
                                      n_per_class=n_per_class, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = ds.data.nbytes + 1.1 * one_class
        assert peak < bound, f"peak {peak / 1e6:.3f} MB, bound {bound / 1e6:.3f} MB"

    def test_shapes_and_grouped_labels(self):
        ds = gen_poisson_patterns(3, 10, 5, 0.1, 0.9, n_per_class=4, seed=0)
        assert ds.data.shape == (12, 10, 5)
        assert ds.data.dtype == np.uint8
        npt.assert_array_equal(ds.labels, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
        assert ds.class_count == 3

    def test_entries_exactly_binary(self):
        ds = gen_poisson_patterns(4, 16, 8, 0.0, 1.0, n_per_class=10, seed=3)
        assert np.all((ds.data == 0.0) | (ds.data == 1.0))

    def test_byte_identical_across_runs(self):
        a = gen_poisson_patterns(2, 8, 6, 0.2, 0.8, n_per_class=5, seed=42)
        b = gen_poisson_patterns(2, 8, 6, 0.2, 0.8, n_per_class=5, seed=42)
        assert a.data.tobytes() == b.data.tobytes()
        c = gen_poisson_patterns(2, 8, 6, 0.2, 0.8, n_per_class=5, seed=43)
        assert a.data.tobytes() != c.data.tobytes()

    def test_splits_draw_disjoint_noise_from_shared_templates(self):
        kw = dict(class_count=2, neurons=16, timesteps=20, rate_lo=0.1, rate_hi=0.9,
                  n_per_class=200, seed=11)
        train = gen_poisson_patterns(split="train", **kw)
        test = gen_poisson_patterns(split="test", **kw)
        assert train.data.tobytes() != test.data.tobytes()
        # Same class templates: per-class per-neuron empirical rates agree
        # to within a few binomial standard errors (4000 draws per cell).
        for c in range(2):
            r_train = train.data[train.labels == c].mean(axis=(0, 2))
            r_test = test.data[test.labels == c].mean(axis=(0, 2))
            assert np.max(np.abs(r_train - r_test)) < 0.05

    def test_rate_preconditions(self):
        with pytest.raises(ConfigError):
            gen_poisson_patterns(2, 4, 3, 0.5, 0.5, n_per_class=2, seed=0)
        with pytest.raises(ConfigError):
            gen_poisson_patterns(2, 4, 3, 0.0, 0.0, n_per_class=2, seed=0)
        with pytest.raises(ConfigError):
            gen_poisson_patterns(2, 4, 3, -0.1, 0.5, n_per_class=2, seed=0)
        with pytest.raises(ConfigError):
            gen_poisson_patterns(2, 4, 3, 0.1, 1.5, n_per_class=2, seed=0)

    def test_count_preconditions(self):
        with pytest.raises(ConfigError):
            gen_poisson_patterns(0, 4, 3, 0.1, 0.5, n_per_class=2, seed=0)
        with pytest.raises(ConfigError):
            gen_poisson_patterns(2, 4, 0, 0.1, 0.5, n_per_class=2, seed=0)
        with pytest.raises(ConfigError):
            gen_poisson_patterns(2, 4, 3, 0.1, 0.5, n_per_class=2, seed=0, split="val")


class TestDatasetInvariants:
    def test_rejects_non_binary_entries(self):
        data = np.zeros((2, 3, 4))
        data[0, 0, 0] = 0.5
        with pytest.raises(DataError):
            Dataset(data=data, labels=np.zeros(2, dtype=int), class_count=2)

    # 256 would wrap to a valid 0 if it were cast to uint8 before the check.
    @pytest.mark.parametrize("value, dtype", [
        (0.5, np.float64), (np.nan, np.float64), (-1.0, np.float64), (np.inf, np.float32),
        (-1, np.int64), (2, np.int64), (256, np.int64), (256, np.uint16), (2, np.uint8),
    ])
    def test_rejects_non_binary_value_of_any_dtype(self, value, dtype):
        data = np.ones((2, 3, 4), dtype=dtype)
        data[1, 2, 3] = value
        with pytest.raises(DataError, match="exactly 0 or 1"):
            Dataset(data=data, labels=np.zeros(2, dtype=int), class_count=2)

    def test_rejects_non_numeric_data(self):
        with pytest.raises(DataError, match="exactly 0 or 1"):
            Dataset(data=np.full((1, 2, 2), "1"), labels=np.zeros(1, dtype=int), class_count=1)

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64, np.float32, np.float64])
    def test_binary_data_of_any_dtype_is_held_as_uint8(self, dtype):
        bits = (np.random.default_rng(4).random((3, 5, 2)) < 0.5)
        ds = Dataset(data=bits.astype(dtype), labels=np.zeros(3, dtype=int), class_count=1)
        assert ds.data.dtype == np.uint8
        assert ds.data.tobytes() == bits.astype(np.uint8).tobytes()

    def test_uint8_data_is_not_copied(self):
        data = np.zeros((2, 3, 4), dtype=np.uint8)
        assert Dataset(data=data, labels=np.zeros(2, dtype=int), class_count=1).data is data

    def test_rejects_label_out_of_range(self):
        with pytest.raises(DataError):
            Dataset(data=np.zeros((2, 3, 4)), labels=np.array([0, 2]), class_count=2)

    def test_rejects_mismatched_label_count(self):
        with pytest.raises(DataError):
            Dataset(data=np.zeros((2, 3, 4)), labels=np.zeros(3, dtype=int), class_count=2)

    def test_rejects_zero_samples(self):
        with pytest.raises(DataError, match="no samples"):
            Dataset(data=np.zeros((0, 3, 4)), labels=np.zeros(0, dtype=int), class_count=2)


class TestLoadEventsCsv:
    def test_bundled_manifest(self, caplog):
        with caplog.at_level(logging.WARNING, logger="spikekit.data"):
            streams = load_events_csv(EVENTS_DIR / "manifest.json")
        assert [label for _, label in streams] == [0, 1, 0, 2]

        clean, _ = streams[0]
        assert clean.shape[1] == 4 and clean.dtype == np.int64
        assert tuple(clean[0]) == (100, 3, 4, 1)
        assert tuple(clean[-1]) == (3000, 2, 19, 0)

        # dropped-line report for the file with one bad line
        assert len(streams[2][0]) == 150
        messages = [rec.getMessage() for rec in caplog.records]
        assert any("noisy.csv" in m and "dropped 1" in m for m in messages)

        # empty file loads as an empty stream, not an error
        assert streams[3][0].shape == (0, 4)

    def test_unsorted_input_sorted_stably(self):
        streams = load_events_csv(EVENTS_DIR / "manifest.json")
        unsorted, _ = streams[1]
        assert unsorted[:, 0].tolist() == [100, 300, 500, 500, 700]
        # the two t=500 events keep their file order: x=9 came first
        assert unsorted[unsorted[:, 0] == 500, 1].tolist() == [9, 1]

    def test_over_one_percent_malformed_rejected(self):
        with pytest.raises(DataError, match="corrupt.csv"):
            load_events_csv(EVENTS_DIR / "bad_manifest.json")

    def test_manifest_validation(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{not json")
        with pytest.raises(DataError):
            load_events_csv(p)
        p.write_text(json.dumps({"path": "x.csv", "label": 0}))
        with pytest.raises(DataError, match="list"):
            load_events_csv(p)
        p.write_text(json.dumps([{"path": "x.csv"}]))
        with pytest.raises(DataError, match="label"):
            load_events_csv(p)
        p.write_text(json.dumps([{"path": "x.csv", "label": -1}]))
        with pytest.raises(DataError):
            load_events_csv(p)

    @pytest.mark.parametrize("entry, says", [
        ({"path": 5, "label": 0}, "path must be a string"),
        ({"path": ["x"], "label": 0}, "path must be a string"),
        ({"path": None, "label": 0}, "path must be a string"),
        ({"path": "x.csv", "label": True}, "label must be a non-negative integer"),
        ({"path": "x.csv", "label": 1.5}, "label must be a non-negative integer"),
        ({"path": "x.csv", "label": "0"}, "label must be a non-negative integer"),
        ({"path": "x.csv", "label": -1}, "label must be a non-negative integer"),
        ({"label": 0}, "must be an object with path and label"),
    ])
    def test_bad_manifest_entry_names_file_entry_and_field(self, tmp_path, entry, says):
        (tmp_path / "x.csv").write_text("1,2,3,0\n")
        p = tmp_path / "m.json"
        p.write_text(json.dumps([{"path": "x.csv", "label": 0}, entry]))
        with pytest.raises(DataError, match=re.escape(f"manifest {p} entry 1 {says}")):
            load_events_csv(p)

    def test_missing_event_file_is_io_error(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps([{"path": "nowhere.csv", "label": 0}]))
        with pytest.raises(OSError):
            load_events_csv(p)

    def test_rejected_line_shapes(self, tmp_path):
        # each of these forms counts as malformed and gets dropped
        bad = ["1,2,3", "1,2,3,4,5", "a,b,c,d", "-5,1,1,0", "5,-1,1,0", "5,1,1,2"]
        csv = tmp_path / "s.csv"
        csv.write_text("\n".join([f"{i},0,0,0" for i in range(1000)] + bad) + "\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"path": "s.csv", "label": 0}]))
        (records, _), = load_events_csv(manifest)
        assert len(records) == 1000

    def test_values_beyond_int64_dropped(self, tmp_path, caplog):
        # Python's int() takes any size; a field int64 cannot hold is malformed
        top = 2**63 - 1
        good = [f"{i},0,0,0" for i in range(200)] + [f"{top},{top},{top},1"]
        bad = [f"{top + 1},0,0,0", f"0,{10**22},0,0"]
        csv = tmp_path / "s.csv"
        csv.write_text("\n".join(good + bad) + "\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"path": "s.csv", "label": 0}]))
        with caplog.at_level(logging.WARNING, logger="spikekit.data"):
            (records, _), = load_events_csv(manifest)
        assert len(records) == 201
        assert tuple(records[-1]) == (top, top, top, 1)
        assert any("dropped 2 malformed" in rec.getMessage() for rec in caplog.records)

    def _load_one(self, tmp_path, text):
        (tmp_path / "s.csv").write_text(text, encoding="utf-8")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"path": "s.csv", "label": 0}]))
        (records, _), = load_events_csv(manifest)
        return records

    def test_odd_lines_keep_their_file_positions(self, tmp_path):
        # The mid-file header sends the file past the whole-file parse; the
        # int()-valid odd lines are then read by the per-line rules and must
        # land back among the plain t=500 lines in file order.
        lines = ["700,8,8,0", "500,0,0,0", "+500,1,1,0", EVENT_HEADER, "500,9,9,0",
                 " 500,2,2,1\x0c", "0000000000000000500,3,3,1", "500,4,4,0",
                 "1000000000000000000,7,7,1"]
        records = self._load_one(tmp_path, "\n".join(lines) + "\n")
        assert records[:, 0].tolist() == [500] * 6 + [700, 10**18]
        assert records[:, 1].tolist() == [0, 1, 9, 2, 3, 4, 8, 7]
        assert records[:, 3].tolist() == [0, 0, 0, 1, 1, 0, 0, 1]

    def test_per_line_rules_see_only_odd_lines(self, tmp_path, monkeypatch):
        seen = []
        parse_lines = data._parse_lines

        def spy(lines):
            lines = list(lines)
            seen.extend(lines)
            return parse_lines(lines)

        monkeypatch.setattr(data, "_parse_lines", spy)
        odd = [EVENT_HEADER, "17,1,abc,0", "+40,2,2,1", "  ", "\u0663,3,3,0"]
        lines = [f"{i},{i % 7},{i % 5},{i % 2}" for i in range(300)]
        for k, line in enumerate(odd):
            lines.insert(k * 60, line)
        records = self._load_one(tmp_path, "\n".join(lines))
        assert seen == odd
        assert len(records) == 302  # 300 plain rows, "+40" and the Arabic-Indic 3


def _reference_parse(path):
    """The loader's per-line rules, read by iterating the file in text mode."""
    rows, dropped = [], 0
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line == EVENT_HEADER:
                continue
            parts = line.split(",")
            try:
                row = tuple(int(p) for p in parts)
            except ValueError:
                row = ()
            if (len(row) == 4 and min(row) >= 0 and row[3] in (0, 1)
                    and max(row) < 2**63):
                rows.append(row)
            else:
                dropped += 1
    rows.sort(key=lambda r: r[0])
    return np.array(rows, dtype=np.int64).reshape(-1, 4), dropped


_ROW = st.tuples(st.integers(0, 60), st.integers(0, 40), st.integers(0, 40), st.integers(0, 1))
# Lines the per-line rules keep, skip or drop that a plain "t,x,y,p" never shows.
_ODD_LINES = st.one_of(
    st.sampled_from(["", "  \t", EVENT_HEADER, f" {EVENT_HEADER} "]),
    _ROW.map(lambda r: "+{},{},{},{}".format(*r)),
    _ROW.map(lambda r: "1_{},{},{},{}".format(*r)),
    _ROW.map(lambda r: "{},{},{},{}\x0c".format(*r)),
    _ROW.map(lambda r: " {}, {} ,{},{}\x0b".format(*r)),
    _ROW.map(lambda r: "{0},{1},{2},{3}\u2028{0},{1},{2},{3}".format(*r)),
    _ROW.map(lambda r: "{},{}\x1c,{},{}".format(*r)),
    _ROW.map(lambda r: "{},{},{},{}\x1f".format(*r)),
    _ROW.map(lambda r: "{},\u0663,{},{}".format(r[0], *r[2:])),
    _ROW.map(lambda r: "{},\u01fe,{},{}".format(r[0], *r[2:])),
    _ROW.map(lambda r: "{},\U0001D7CE,{},{}".format(r[0], *r[2:])),
    _ROW.map(lambda r: "{},{},{}".format(*r)),
    _ROW.map(lambda r: "{},{},{},{},0".format(*r)),
    _ROW.map(lambda r: "{},{},abc,{}".format(*r)),
    _ROW.map(lambda r: "-{},{},{},{}".format(r[0] + 1, *r[1:])),
    _ROW.map(lambda r: "{},{},{},2".format(*r)),
    _ROW.map(lambda r: "{};{};{};{}".format(*r)),
    _ROW.map(lambda r: "{},{},{},{}".format(2**63 + r[0], *r[1:])),
)


@st.composite
def _event_csv(draw):
    rows = draw(st.lists(_ROW, max_size=30)) * draw(st.integers(1, 40))
    lines = ["{},{},{},{}".format(*r) for r in rows]
    for pos, odd in draw(st.lists(st.tuples(st.integers(0, 1200), _ODD_LINES), max_size=4)):
        lines.insert(pos, odd)
    if draw(st.booleans()):
        lines.insert(0, EVENT_HEADER)
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                            min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, endings))


class _Dropped(logging.Handler):
    def __init__(self):
        super().__init__()
        self.counts = []

    def emit(self, record):
        self.counts.append(int(re.search(r"dropped (\d+) malformed", record.getMessage())[1]))


@settings(max_examples=150, deadline=None)
@given(text=_event_csv())
def test_loader_matches_per_line_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "s.csv"
        csv.write_bytes(text.encode("utf-8"))
        manifest = Path(tmp) / "m.json"
        manifest.write_text(json.dumps([{"path": "s.csv", "label": 0}]))
        expected, dropped = _reference_parse(csv)
        considered = len(expected) + dropped
        if considered and dropped / considered > 0.01:
            with pytest.raises(DataError, match="s.csv"):
                load_events_csv(manifest)
            return
        handler = _Dropped()
        logger = logging.getLogger("spikekit.data")
        logger.addHandler(handler)
        try:
            (events, _), = load_events_csv(manifest)
        finally:
            logger.removeHandler(handler)
    assert events.dtype == np.int64
    npt.assert_array_equal(events, expected)
    assert handler.counts == ([dropped] if dropped else [])


class TestBinEvents:
    def test_single_event_single_one(self):
        frame = bin_events([(50, 0, 0, 1)], 4, 4, 6)
        assert frame.shape == (32, 6)
        assert frame.sum() == 1.0
        # polarity 1 lands in the second channel, zero time span lands in bin 0
        assert frame[16, 0] == 1.0

    def test_or_accumulation(self):
        events = [(0, 1, 1, 0), (1, 1, 1, 0), (2, 1, 1, 0), (1000, 1, 1, 0)]
        frame = bin_events(events, 4, 4, 2)
        assert frame.sum() == 2.0  # first three collapse into one cell

    def test_extremes_land_in_first_and_last_bin(self):
        events = [(123, 0, 0, 0), (7777, 1, 0, 0)]
        for timesteps in (1, 2, 3, 7, 16):
            frame = bin_events(events, 2, 1, timesteps)
            assert frame[0, 0] == 1.0
            assert frame[1, timesteps - 1] == 1.0

    def test_bins_match_exact_rational_arithmetic(self):
        """Equal-width binning oracle evaluated in exact arithmetic."""
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            times = sorted(int(t) for t in rng.integers(0, 100000, size=n))
            events = [(t, i, 0, 0) for i, t in enumerate(times)]
            timesteps = int(rng.integers(1, 9))
            frame = bin_events(events, n, 1, timesteps)
            t_min, t_max = times[0], times[-1]
            span = t_max - t_min
            for i, t in enumerate(times):
                if span == 0:
                    expect = 0
                else:
                    expect = min(timesteps - 1,
                                 int(Fraction(t - t_min, span) * timesteps))
                assert frame[i, expect] == 1.0, (times, timesteps, i)

    def test_monotone_in_time(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            times = sorted(int(t) for t in rng.integers(0, 5000, size=10))
            events = [(t, i, 0, 0) for i, t in enumerate(times)]
            frame = bin_events(events, 10, 1, 5)
            bins = [int(np.argmax(frame[i])) for i in range(10)]
            assert bins == sorted(bins)

    def test_integer_downscale_onto_grid(self):
        # 6-wide, 4-tall extent onto a 3x2 grid: both axes scale by 2
        events = [(0, 5, 3, 0), (10, 4, 2, 0), (20, 0, 0, 1)]
        frame = bin_events(events, 3, 2, 1)
        assert frame[1 * 3 + 2, 0] == 1.0  # (5,3) and (4,2) -> cell (2,1)
        assert frame[6 + 0, 0] == 1.0      # polarity channel offset is 3*2
        assert frame.sum() == 2.0

    def test_output_binary(self):
        rng = np.random.default_rng(19)
        events = np.stack([rng.integers(0, 999, 200), rng.integers(0, 64, 200),
                           rng.integers(0, 48, 200), rng.integers(0, 2, 200)], axis=1)
        frame = bin_events(events, 8, 8, 10)
        assert frame.dtype == np.uint8
        assert np.all((frame == 0) | (frame == 1))

    def test_empty_stream_rejected(self):
        with pytest.raises(EmptySampleError):
            bin_events([], 4, 4, 5)

    def test_invalid_records_rejected(self):
        with pytest.raises(DataError):
            bin_events([(1, 1, 1, 2)], 4, 4, 5)
        with pytest.raises(DataError, match="integer"):
            bin_events([(1.0, 1, 1, 0)], 4, 4, 5)
        with pytest.raises(DataError, match="integer"):
            bin_events([(1, 1, 1)], 4, 4, 5)

    def test_int64_overflow_rejected(self):
        # (t - t_min) * timesteps must fit int64; 2**62 * 2 does not
        with pytest.raises(DataError, match="time span .* overflows int64"):
            bin_events([(0, 0, 0, 0), (2**62, 0, 0, 0)], 1, 1, 2)
        frame = bin_events([(0, 0, 0, 0), (2**62, 0, 0, 0)], 1, 1, 1)
        assert frame[0, 0] == 1.0
        with pytest.raises(DataError, match="pixel extent .* overflows int64"):
            bin_events([(0, 2**63 - 1, 0, 0)], 1, 1, 1)

    @given(events=st.lists(_ROW, min_size=1, max_size=60), data=st.data(),
           grid=st.integers(1, 6), timesteps=st.integers(1, 12))
    def test_invariant_to_event_order(self, events, data, grid, timesteps):
        shuffled = data.draw(st.permutations(events))
        npt.assert_array_equal(bin_events(events, grid, grid, timesteps),
                               bin_events(shuffled, grid, grid, timesteps))

    @given(events=st.lists(_ROW, min_size=1, max_size=60),
           grid=st.integers(1, 6), timesteps=st.integers(1, 12))
    def test_set_cells_at_most_events(self, events, grid, timesteps):
        frame = bin_events(events, grid, grid, timesteps)
        assert 1 <= np.count_nonzero(frame) <= len(events)

    def test_parameter_preconditions(self):
        stream = [(1, 1, 1, 0)]
        with pytest.raises(ConfigError):
            bin_events(stream, 0, 4, 5)
        with pytest.raises(ConfigError):
            bin_events(stream, 4, 4, 0)

