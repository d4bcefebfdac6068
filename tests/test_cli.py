"""End-to-end tests for the csbsim command line.

Each run is driven through ``main(argv)`` with a throwaway output directory.
Determinism contracts are checked at the byte level: the same config and
seed must reproduce identical CSV files.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csbsim import airspy, cli
from csbsim.channel_sim import equalize_and_detect, ser_bytes
from csbsim.cli import (
    ConfigError, ExperimentConfig, _plan, _write_csv, cmd_beam_pattern, dump_config, load_config, main,
)
from csbsim.csb_defense import apn_law

from oracles import row_csv


# (subcommand, config text or bytes, the key or section its error line must name)
BAD_CONFIGS = [
    ("attack", "[scenario]\nh = nan\n", "h"),
    ("attack", "[scenario]\nt_s = inf\n", "t_s"),
    ("attack", "[attack]\nv_max = inf\n", "v_max"),
    ("beam-pattern", "[array]\nn_t = 7\n", "[array]"),
    ("apn-dist", "[array]\nn_t = 7\n", "[array]"),
    ("beam-pattern", "[array]\nq = 0\n", "[array]"),
    # 2^q quantizer levels past the float range
    ("smi-sweep", "[array]\nq = 1024\n", "[array]"),
    ("ser", "[array]\nn_rows = 3\n", "[array]"),
    ("smi-sweep", "[experiment]\nasm_c = 0.001\n", "[experiment] asm_c"),
    ("ser", "[experiment]\nasm_c = 0.3,nan\n", "asm_c"),
    ("attack", "[scenario]\nlane_x = 0\n", "[scenario]"),
    ("ser", "[attack]\ngrid_g = 1\n", "[attack]"),
    ("attack", "[scenario]\ny_min = 5\ny_max = -5\n", "[scenario]"),
    ("smi-sweep", "[experiment]\nasm_c = 1.5\n", "[experiment] asm_c"),
    ("ser", "[attack]\nv_max = 0\n", "[attack]"),
    # fractions whose column and row labels ({c:g}) coincide
    ("ser", "[experiment]\nasm_c = 0.5,0.5\n", "[experiment] asm_c"),
    ("smi-sweep", "[array]\nn_t = 8\n[experiment]\nasm_c = 0.5,0.5000001\n", "[experiment] asm_c"),
    # planners far past the size cap, rejected before anything is allocated
    ("attack", "[attack]\ngrid_g = 100000\n", "[attack] grid_g"),
    ("attack", "[scenario]\nt_s = 1e-9\n", "[attack] grid_g"),
    # a step count past the float range
    ("attack", "[scenario]\nt_s = 1e-320\n", "[scenario]"),
    # one step, but a 4096 x 4096 plane grid through the gain kernel
    ("attack", "[scenario]\nt_s = 100\n[attack]\ngrid_g = 4096\n", "[attack] grid_g"),
    # estimates past the float range
    ("attack", "[scenario]\nt_s = 1e-306\n", "[attack] grid_g"),
    ("attack", f"[attack]\ngrid_g = {10**160}\n", "grid_g"),
    # Monte-Carlo runs far past the size cap, rejected whatever the subcommand
    ("ser", "[experiment]\nnum_symbols = 1000000000000\n", "[experiment] num_symbols"),
    # 256 symbols whose ASM subsets of a 512 x 512 array fill one 1.14 GB mask block
    ("ser", "[array]\nn_t = 512\n[attack]\ngrid_g = 2\n[experiment]\nnum_symbols = 256\n", "[experiment] num_symbols"),
    ("smi-sweep", "[experiment]\nmi_samples = 1000000000000\n", "[experiment] mi_samples"),
    # MI estimates that fit the cap at one worker but not at MI_WORKERS
    ("smi-sweep", "[experiment]\nm_order = 512\nmi_samples = 2000000\n", "[experiment] mi_samples"),
    # an SNR step that cannot move the sweep off -10 dB, and one that moves
    # it through 4e7 points
    ("ser", "[experiment]\nsnr_step_db = 1e-300\n", "[experiment] snr_step_db"),
    ("ser", "[experiment]\nsnr_step_db = 1e-6\n", "[experiment] snr_step_db"),
    # an exponent block of 256 x 2^20 x 16 float64 in the first MI estimate
    ("smi-sweep", "[experiment]\nm_order = 1048576\n", "m_order"),
    # SNRs whose linear power 10 ** (dB / 10) is past the float range
    ("ser", "[experiment]\nsnr_min_db = 3000\nsnr_max_db = 3100\nsnr_step_db = 100\n", "[experiment] snr_max_db"),
    ("smi-sweep", "[experiment]\nrx_snr_db = 4000\n", "[experiment] rx_snr_db"),
    # an SNR past the MI estimate's ceiling, where exp of its exponents'
    # rounding overflows
    ("smi-sweep", "[experiment]\nrx_snr_db = 200\n", "[experiment] rx_snr_db"),
    # SNR points whose noise power on the ser link is not a finite positive
    # float: it overflows to inf far below 0 dB, and underflows to 0 far
    # above it on a weak path
    ("ser", "[experiment]\nsnr_min_db = -3090\nsnr_max_db = -3090\n", "[experiment] snr_min_db"),
    ("ser", "[scenario]\np0 = 1e-20\n[experiment]\nsnr_min_db = 3000\nsnr_max_db = 3080\n", "[experiment] snr_max_db"),
    # a link budget whose peak SNR overflows a float, at the plane's nearest
    # cell (r0) and for every range (sigma2)
    ("ser", "[scenario]\nr0 = 1e200\n", "[scenario]"),
    ("attack", "[scenario]\nsigma2 = 1e-320\n", "[scenario]"),
    # a plane whose farthest cell's squared range overflows a float, far
    # out or under a near-flat aperture, and a tilt whose squared
    # elevation separation does
    ("attack", "[attack]\nd = 1e200\n", "[attack]"),
    ("ser", "[attack]\nd = 1e150\nbeta_deg = 179.9999\n", "[attack]"),
    ("attack", "[scenario]\ntheta_tilt_deg = 1e300\n", "[scenario] theta_tilt_deg"),
    # a plane whose half-width d tan(beta/2) rounds to 0, which the
    # planner's step radius divides by, and a separation bound whose square
    # overflows a float
    ("attack", "[attack]\nbeta_deg = 5e-324\n", "[attack]"),
    ("ser", "[attack]\nepsilon_deg = 1e300\n", "[attack] epsilon_deg"),
    # a file that is not UTF-8
    ("apn-dist", b"\xff\xfe[array]\nn_t = 16\n", "cannot read config"),
]


def read_csv(path):
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# (header, columns, the file's expected bytes)
WRITER_CASES = [
    (["s"], [["none", "asm-0.5"]], b"s\nnone\nasm-0.5\n"),
    (["i", "u"], [[3, -12], np.array([7, 2**40], dtype=np.uint64)], b"i,u\n3,7\n-12,1099511627776\n"),
    (["x"], [np.array([0.1, 1 / 3, -2.0, 1e-20, 123456789012345.0])],
     b"x\n0.1\n0.333333333333\n-2\n1e-20\n1.23456789012e+14\n"),
    (["a", "b"], [[np.nan, 0.5], [1.0, np.nan]], b"a,b\n,1\n0.5,\n"),
    (["k", "s", "x"], [[1, 2], ["p", "q"], [2.5, np.nan]], b"k,s,x\n1,p,2.5\n2,q,\n"),
    (["x", "y"], [[], []], b"x,y\n"),
]


@pytest.mark.parametrize("header,columns,expected", WRITER_CASES, ids=[",".join(h) for h, _, _ in WRITER_CASES])
def test_write_csv_formats_columns_by_type(tmp_path, header, columns, expected):
    path = tmp_path / "t.csv"
    assert _write_csv(str(path), header, columns) == str(path)
    assert path.read_bytes() == expected


def test_write_csv_bytes_equal_the_row_writer(tmp_path):
    # two whole blocks of CSV_ROWS rows and a ragged third, with every float
    # the bits keep apart: -0.0 and 0.0, NaN, NaN with its sign bit set and
    # NaN with a payload, infinities, and a tiny subnormal
    rng = np.random.default_rng(5)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123], dtype=np.uint64).view(np.float64)
    values = np.concatenate([[0.0, -0.0, 1 / 3, -2.5, 1e-320, np.inf, -np.inf, 123456789012345.0], nans])
    rows = 2 * cli.CSV_ROWS + 3
    repeated = values[rng.integers(len(values), size=rows - cli.CSV_ROWS)]
    floats = np.concatenate([rng.normal(size=cli.CSV_ROWS), repeated])
    header = ["k", "s", "x", "y"]
    columns = [rng.integers(-5, 5, size=rows), rng.choice(["none", "asm-0.5"], size=rows), floats, floats[::-1].copy()]
    _write_csv(str(tmp_path / "new.csv"), header, columns)
    row_csv(str(tmp_path / "old.csv"), header, columns)
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "old.csv").read_bytes()
    assert b",-0," in got and b",0," in got and b",," in got and b"nan" not in got


def _same_bytes_as_row_csv(columns) -> bool:
    with tempfile.TemporaryDirectory() as out:
        header = [f"c{k}" for k in range(len(columns))]
        _write_csv(os.path.join(out, "new.csv"), header, columns)
        row_csv(os.path.join(out, "old.csv"), header, columns)
        with open(os.path.join(out, "new.csv"), "rb") as new, open(os.path.join(out, "old.csv"), "rb") as old:
            return new.read() == old.read()


# Floats at the edges of the numpy %.12g formatter: exact 12-digit ties;
# carries into a 13th digit; the switches between fixed point and exponent
# at 1e-05/1e-04 and 1e11/1e12; two- and three-digit exponents; the
# smallest subnormal and normal floats and the largest float, on both sides
# of the 1e-297 end of the scale table; and decimal ties of 13 digits whose
# scaled mantissa rounds to the wrong side of .5, which only Python's own
# '%.12g' gets right
FLOAT_EDGES = [
    123456789012.5, 123456789013.5, 999999999999.5, 9.999999999995e-05, 99999999999.95,
    1e-05, 9.9999999999e-06, 1.00000000001e-05, 1e-04, 9.99999999999e-05, 1.00000000001e-04,
    1e11, 99999999999.9, 100000000000.1, 1e12, 999999999999.0, 999999999999.4, 1000000000001.0,
    1e99, 9.99999999999e99, 1e100, 1e-99, 1e-100, 1.5e-100, 5e-324, 1e-310, 2.2250738585072014e-308,
    1e-297, 9.99999999999e-298, 1e-298, 1.7976931348623157e308, 1e308,
    1.148748719755e-20, 9.415651814085e-14, 8716.638489285, 68247056041.65, 2.215868545205e-07,
    7.493395061745e20, 9.406391643605e23, 38968.24519685, 0.1, 1 / 3, 2.5, 1.0, 10.0,
]
SPECIAL_FLOATS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan],
    np.array([0xFFF8000000000000, 0x7FF8000000000123, 0xFFF0000000000001], dtype=np.uint64).view(np.float64),
])


def test_write_csv_float_edges_equal_the_row_writer():
    edges = np.array(FLOAT_EDGES)
    assert _same_bytes_as_row_csv([np.concatenate([edges, -edges, SPECIAL_FLOATS])])
    # columns whose own words are fewer than Python's text needs, or none
    for column in ([1.0, 5e-324, 2.0], [-7.0, 123456789012.5], [0.0], [np.nan], [np.inf, 3.0]):
        assert _same_bytes_as_row_csv([np.array(column)])
    ints = np.array([0, 1, -1, 9, -10, 9999, -9999, 10000, -10000, 2**63 - 1, -(2**63)], dtype=np.int64)
    assert _same_bytes_as_row_csv([ints, np.array([0, 9999, 10000, 2**64 - 1] * 2 + [7, 8, 9], dtype=np.uint64)])


def _decimal_tie(digits: int, exponent: int, negative: bool) -> float:
    """The float nearest a 13-digit decimal whose last digit is 5."""
    return float(f"{'-' if negative else ''}{digits}5e{exponent}")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(width=64)
        | st.builds(_decimal_tie, st.integers(10**11, 10**12 - 1), st.integers(-336, 295), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_write_csv_drawn_floats_equal_the_row_writer(floats):
    # signed, subnormal, huge, NaN and infinite floats, and near-ties
    assert _same_bytes_as_row_csv([np.array(floats)])


@pytest.mark.parametrize("config", ["", "[array]\nn_t = 64\nq = 1\n"], ids=["default", "64x64-1bit"])
def test_full_size_beam_maps_equal_the_row_writer(tmp_path, config):
    # the 181 x 181 mesh, past one block of CSV_ROWS rows
    path = tmp_path / "beam.ini"
    path.write_text(config)
    tables = cmd_beam_pattern(load_config(str(path)))
    assert len(tables) == 3
    for header, columns in tables.values():
        assert len(columns[0]) == 181 * 181 > cli.CSV_ROWS
        assert _same_bytes_as_row_csv(columns)


def test_write_csv_temporaries_stay_within_a_block(tmp_path, traced_peak):
    # (int, str, float, float) rows: the peak of 200k rows is that of 50k,
    # and both are below the per-block bound of _write_csv's docstring
    rng = np.random.default_rng(7)
    peaks = []
    for rows in (50_000, 200_000):
        columns = [
            rng.integers(-(10**6), 10**6, size=rows),
            rng.choice(["none", "csb", "asm-0.5"], size=rows),
            rng.normal(size=rows) * 10.0 ** rng.integers(-30, 30, size=rows),
            rng.random(rows),
        ]
        _write_csv(str(tmp_path / "t.csv"), ["k", "s", "x", "y"], columns)  # untraced: first calls
        peaks.append(traced_peak(_write_csv, str(tmp_path / "t.csv"), ["k", "s", "x", "y"], columns))
    assert max(peaks) < 256 * 4 * cli.CSV_ROWS
    assert peaks[1] - peaks[0] < 150_000  # under one byte per added row


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError):
        _write_csv(str(tmp_path / "t.csv"), ["a", "b"], [[1, 2, 3], [0.5, 0.25]])


@pytest.mark.parametrize("column", [["a\0b"], ["ok", "a\0"], np.array(["x", "\0y"])], ids=["inside", "last", "array"])
def test_write_csv_rejects_a_nul_in_a_str_field(tmp_path, column):
    # the writer drops NUL bytes from its blocks, so a NUL in a field would
    # be lost; it is refused before the file is opened
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="NUL"):
        _write_csv(str(path), ["s"], [column])
    assert not path.exists()


def test_write_csv_writes_utf8_under_an_ascii_locale(tmp_path):
    # the C locale's preferred encoding is ASCII; the file is UTF-8 bytes
    path = tmp_path / "t.csv"
    code = (
        "import locale, sys; from csbsim.cli import _write_csv; "
        "assert locale.getpreferredencoding(False).lower() not in ('utf-8', 'utf8'); "
        f"_write_csv({str(path)!r}, ['s', 'x'], [['\\xe9', '\\u65e5\\u672c'], [0.5, -1.0]])"
    )
    env = {
        **os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": os.pathsep.join([os.path.dirname(cli.__file__) + "/..", os.environ.get("PYTHONPATH", "")]),
    }
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert path.read_bytes() == "s,x\n\xe9,0.5\n\u65e5\u672c,-1\n".encode("utf-8")


class TestConfigFile:
    def test_defaults_without_file(self):
        assert load_config(None) == ExperimentConfig()

    @pytest.mark.parametrize("cpus", [1, 64])
    def test_size_check_does_not_read_the_host(self, monkeypatch, cpus):
        # On 1 CPU as on 64, the MI size check counts MI_WORKERS workers: the
        # default config and m_order = 512 pass, and m_order = 512 at 2e6
        # samples fails (1.04 GB of the 1.07 GB cap at one worker, 1.10 GB at
        # two), as does m_order = 1024
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        ExperimentConfig()
        ExperimentConfig(m_order=512)
        for fields in ({"m_order": 512, "mi_samples": 2_000_000}, {"m_order": 1024}):
            with pytest.raises(ConfigError, match=r"^\[experiment\] mi_samples"):
                ExperimentConfig(**fields)

    def test_ser_size_check_counts_the_asm_mask_block(self):
        # 256 symbols take 70 kB, but their ASM subsets of a 512 x 512 array
        # are one mask block of 1.14 GB: the float64 scores, their
        # partitioned copy and the boolean masks. With no ASM fraction
        # nothing is masked.
        with pytest.raises(ConfigError, match=r"^\[experiment\] num_symbols: 256 symbols on a 512 x 512 array: "):
            ExperimentConfig(n_t=512, grid_g=2, num_symbols=256)
        ExperimentConfig(n_t=512, grid_g=2, num_symbols=256, asm_c=())

    def test_ser_rows_grow_below_their_estimate(self, tmp_path, capsys, traced_peak):
        # one symbol at 11 and at 1001 SNR points on a 4 x 4 array: the
        # error counts and the rows of the ser tables grow with the points
        path = tmp_path / "ser.ini"
        argv = ["ser", "--tiny", "--config", str(path), "--seed", "0", "--out", str(tmp_path)]
        peaks, estimates = [], []
        for step in ("4", "0.04"):
            path.write_text(f"[array]\nn_t = 4\n[experiment]\nsnr_step_db = {step}\nasm_c = 0.5\nnum_symbols = 1\n")
            if not peaks:
                main(argv)  # untraced, so that no peak holds a first import
            peaks.append(traced_peak(main, argv))
            cfg = load_config(str(path))
            estimates.append(ser_bytes(4, 4, len(cfg.snr_sweep), cfg.asm_c, 1))
        assert peaks[1] - peaks[0] < estimates[1] - estimates[0]

    def test_round_trip_preserves_every_field(self, tmp_path):
        cfg = ExperimentConfig(
            n_t=8,
            n_rows=4,
            q=None,
            theta_tilt_deg=-10.0,
            rx_speed=12.5,
            asm_c=(0.25, 0.5),
            m_order=8,
            num_symbols=123,
            mi_samples=456,
        )
        path = tmp_path / "exp.ini"
        path.write_text(dump_config(cfg))
        assert load_config(str(path)) == cfg

    def test_quantizer_spellings(self, tmp_path):
        for raw, expected in (("inf", None), ("none", None), ("3", 3)):
            path = tmp_path / "q.ini"
            path.write_text(f"[array]\nq = {raw}\n")
            assert load_config(str(path)).q == expected

    @pytest.mark.parametrize(
        "text,match",
        [
            ("[nosuch]\nx = 1\n", "unknown config section"),
            ("[array]\nbogus = 1\n", "unknown key"),
            ("[array]\nn_t = sixteen\n", "bad value"),
            # every int field of the file reads as int, not float
            ("[attack]\ngrid_g = 5.5\n", "bad value"),
            ("[experiment]\nmi_samples = 1e3\n", "bad value"),
            ("n_t = 16\n", "malformed"),
        ],
    )
    def test_parse_errors(self, tmp_path, text, match):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_config(str(path))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": -1.0},
            {"m_order": 3},
            {"asm_c": (1.5,)},
            {"snr_min_db": 10.0, "snr_max_db": 0.0},
            {"grid_g": 1},
        ],
    )
    def test_validation_errors(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_colliding_asm_labels_name_the_label(self):
        with pytest.raises(ConfigError, match=r"^\[experiment\] asm_c: .* label '0\.5'$"):
            ExperimentConfig(asm_c=(0.3, 0.5, 0.5000001))
        assert ExperimentConfig(asm_c=(0.5, 0.50001)).asm_c == (0.5, 0.50001)  # labels 0.5 and 0.50001

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/exp.ini")

    def test_snr_sweep_includes_endpoint(self):
        cfg = ExperimentConfig(snr_min_db=0.0, snr_max_db=4.0, snr_step_db=2.0)
        assert cfg.snr_sweep == [0.0, 2.0, 4.0]


class TestExitCodes:
    def test_missing_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["apn-dist"])
        assert err.value.code == 1

    def test_oversized_seed_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["apn-dist", "--seed", str(2**64)])
        assert err.value.code == 1

    @pytest.mark.parametrize("command", ["apn-dist", "ser"])
    def test_largest_seed_runs(self, tmp_path, command):
        out = tmp_path / "o"
        assert main([command, "--tiny", "--seed", str(2**64 - 1), "--out", str(out)]) == 0
        assert os.listdir(out)

    def test_config_error_returns_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[array]\nbogus = 1\n")
        code = main(["apn-dist", "--config", str(bad), "--seed", "0", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_infeasible_returns_2(self, tmp_path, capsys):
        cfg = tmp_path / "inf.ini"
        cfg.write_text("[attack]\nepsilon_deg = 170\n")
        code = main(["attack", "--tiny", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "infeasible" in capsys.readouterr().err

    def test_unwritable_out_dir_returns_3(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["apn-dist", "--seed", "0", "--out", str(blocker / "sub")])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,text,where", BAD_CONFIGS, ids=[f"{command}-{text}" for command, text, _ in BAD_CONFIGS]
    )
    def test_bad_config_is_one_line_config_error(self, tmp_path, capsys, command, text, where):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        code = main([command, "--tiny", "--config", str(bad), "--seed", "0", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:"), err
        assert re.search(rf"(?<!\w){re.escape(where)}(?!\w)", lines[0]), err
        assert not list((tmp_path / "o").glob("*"))

    def test_every_key_at_extreme_values_exits_cleanly(self, tmp_path, capsys):
        # each key of the config file alone at each value of a fixed table,
        # on the cheapest subcommand at --tiny that reads it: a run prints
        # the files it wrote, or is one stderr line and exit 1 or 2, and
        # never raises (RuntimeWarnings are errors here)
        floats = ("0", "-1", "5e-324", "1e-300", "0.5", "179.9999", "1e12", "-1e12", "1e300", "-1e300", "inf", "nan")
        ints = ("0", "-1", "1", "2", "3", "7", "64", str(2**62), str(2**63))
        command = {
            "n_t": "apn-dist", "n_rows": "beam-pattern", "target_theta_deg": "beam-pattern",
            "target_phi_deg": "beam-pattern", "q": "smi-sweep", "asm_c": "smi-sweep", "mi_samples": "smi-sweep",
            "rx_snr_db": "smi-sweep", "rx_theta_deg": "smi-sweep", "m_order": "ser", "snr_min_db": "ser",
            "snr_max_db": "ser", "snr_step_db": "ser", "num_symbols": "ser",
            **{key: "attack" for key in cli._SECTIONS["scenario"] + cli._SECTIONS["attack"]},
        }
        assert set(command) == cli._FILE_KEYS
        runs = 0
        for section, keys in cli._SECTIONS.items():
            for key in keys:
                for value in ints if key in cli._INT_FIELDS or key in ("n_rows", "q") else floats:
                    run = tmp_path / str(runs)
                    run.mkdir()
                    (run / "c.ini").write_text(f"[{section}]\n{key} = {value}\n")
                    argv = [command[key], "--tiny", "--seed", "0", "--config", str(run / "c.ini")]
                    code = main(argv + ["--out", str(run / "o")])
                    out, err = capsys.readouterr()
                    case = f"{command[key]} [{section}] {key} = {value}: exit {code}, {err!r}"
                    if code == 0:
                        assert sorted(out.splitlines()) == sorted(map(str, (run / "o").iterdir())), case
                    else:
                        assert code in (1, 2) and len(err.splitlines()) == 1, case
                    runs += 1
        assert runs == 22 * len(floats) + 7 * len(ints)

    @pytest.mark.parametrize("command", ["beam-pattern", "apn-dist"])
    def test_array_past_the_size_cap_never_reaches_a_subcommand(self, tmp_path, capsys, monkeypatch, command):
        # one 16384 x 16384 codeword is 4.3 GB, though the planner grid, the
        # symbols and the MI samples are as small as they go
        text = "[array]\nn_t = 16384\n[attack]\ngrid_g = 2\n[experiment]\nnum_symbols = 1\nmi_samples = 1\n"
        monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: pytest.fail(f"{command} ran"))
        bad = tmp_path / "big.ini"
        bad.write_text(text)
        code = main([command, "--config", str(bad), "--seed", "0", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: [array] n_t = 16384: ") and err.count("\n") == 1, err
        with pytest.raises(ConfigError, match=r"^\[array\] n_t"):
            ExperimentConfig(n_t=16384, grid_g=2, num_symbols=1, mi_samples=1)

    def test_success_returns_0_and_prints_paths(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["apn-dist", "--seed", "0", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(out / "apn_dist.csv")]
        assert os.path.exists(printed[0])

    def test_command_that_raises_leaves_no_csvs(self, tmp_path, monkeypatch, capsys):
        # the one call for the three beam maps fails after they are computed
        real = cli.beam_pattern

        def beam_pattern(*args):
            real(*args)
            raise OSError("no room for the beam maps")

        monkeypatch.setattr(cli, "beam_pattern", beam_pattern)
        out = tmp_path / "o"
        assert main(["beam-pattern", "--tiny", "--seed", "0", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "i/o error" in captured.err and captured.out == ""
        assert os.listdir(out) == []


LOCK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "lock")


@pytest.mark.parametrize("command", ["beam-pattern", "smi-sweep", "attack", "ser", "apn-dist"])
def test_commands_return_tables_and_write_nothing(tmp_path, monkeypatch, command):
    cfg = dataclasses.replace(load_config(os.path.join(LOCK_DIR, "lock.ini")), tiny=True)

    def write_csv(*args):
        raise AssertionError(f"{command} wrote {args[0]}")

    monkeypatch.setattr(cli, "_write_csv", write_csv)
    monkeypatch.chdir(tmp_path)
    tables = cli._COMMANDS[command](cfg)
    assert os.listdir(tmp_path) == []
    assert sorted(tables) == sorted(os.listdir(os.path.join(LOCK_DIR, command)))
    for name, (header, columns) in tables.items():
        assert len(columns) == len(header), name
        assert len({len(column) for column in columns}) == 1, name


class TestApnDist:
    def test_matches_exact_law_and_reruns_bit_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["apn-dist", "--seed", "7", "--out", str(out_a)]) == 0
        assert main(["apn-dist", "--seed", "7", "--out", str(out_b)]) == 0
        bytes_a = (out_a / "apn_dist.csv").read_bytes()
        assert bytes_a == (out_b / "apn_dist.csv").read_bytes()

        header, rows = read_csv(out_a / "apn_dist.csv")
        assert header == ["g", "phase_deg", "probability"]
        by_g = {}
        for g_str, phase_str, prob_str in rows:
            by_g.setdefault(int(g_str), []).append((float(phase_str), float(prob_str)))
        assert set(by_g) == set(range(17))
        for g, entries in by_g.items():
            law = apn_law(g, 0, 16)
            assert len(entries) == len(law.support)
            for (phase_deg, prob), expected in zip(entries, law.support):
                assert phase_deg == pytest.approx(math.degrees(expected), abs=1e-9)
                assert prob == pytest.approx(law.prob, rel=1e-12)
            assert sum(p for _, p in entries) == pytest.approx(1.0, rel=1e-9)


class TestAttackCommand:
    def test_tiny_schema_and_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["attack", "--tiny", "--seed", "3", "--out", str(out_a)]) == 0
        assert main(["attack", "--tiny", "--seed", "3", "--out", str(out_b)]) == 0
        for q in (1, 2):
            name = f"attack_trajectory_q{q}.csv"
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
            header, rows = read_csv(out_a / name)
            assert header == ["t_s", "u", "v", "theta_deg", "phi_deg", "reward", "secrecy_rate"]
            assert len(rows) == 4
            times = [float(r[0]) for r in rows]
            assert times == pytest.approx([0.0, 0.025, 0.05, 0.075], abs=1e-12)
            for row in rows:
                u, v = float(row[1]), float(row[2])
                assert -1.0 <= u <= 1.0 and -1.0 <= v <= 1.0

    def test_step_radius_past_the_grid_plans(self, tmp_path, capsys):
        # v_max = 970 moves up to 17.1 cells a step on a 16-cell grid
        cfg = tmp_path / "c.ini"
        cfg.write_text("[attack]\nv_max = 970\ngrid_g = 16\n")
        assert main(["attack", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_plan_leaves_no_table_alive(self, monkeypatch):
        # attack plans twice per run: a table kept past its plan would double
        # what the size cap allows
        built = []
        init = airspy._Tables.__init__

        def record(self, scenario, constraints):
            init(self, scenario, constraints)
            built.append(weakref.ref(self))

        monkeypatch.setattr(airspy._Tables, "__init__", record)
        _plan(ExperimentConfig(tiny=True), 1)
        assert len(built) == 1
        assert built[0]() is None

    @pytest.mark.parametrize("tilt_deg", [15.0, -10.0])
    def test_tiny_plan_carries_the_receiver_track(self, tilt_deg):
        scenario, traj = _plan(ExperimentConfig(tiny=True, theta_tilt_deg=tilt_deg), 1)
        assert scenario.theta_tilt == math.radians(tilt_deg)
        assert len(traj.rx) == scenario.num_steps == 4
        for t in range(scenario.num_steps):
            assert traj.rx[t] == airspy.rx_state_at(scenario, t)


class TestBeamPatternCommand:
    def test_tiny_lobe_counts(self, tmp_path):
        out = tmp_path / "o"
        assert main(["beam-pattern", "--tiny", "--seed", "0", "--out", str(out)]) == 0
        amps = {}
        for label in ("inf", "1", "2"):
            header, rows = read_csv(out / f"beam_pattern_q{label}.csv")
            assert header == ["theta_deg", "phi_deg", "normalized_amplitude"]
            assert len(rows) == 37 * 37
            amps[label] = np.array([float(r[2]) for r in rows])
        # the unquantized beam has a single sampled peak; one-bit steering
        # splits it into the target lobe and its mirror image
        peak_inf = amps["inf"].max()
        assert int((amps["inf"] > peak_inf - 1e-9).sum()) == 1
        peak_1 = amps["1"].max()
        assert int((amps["1"] > peak_1 - 1e-9).sum()) >= 2


class TestSmiSweepCommand:
    def make_config(self, tmp_path):
        rx_on_grid = math.degrees(math.asin(3.0 / 8.0))
        cfg = tmp_path / "smi.ini"
        cfg.write_text(
            "[experiment]\n"
            f"rx_theta_deg = {rx_on_grid!r}\n"
            "mi_samples = 2000\n"
        )
        return cfg

    def test_tiny_sweep_schema_and_self_smi(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "o"
        assert main(["smi-sweep", "--tiny", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0

        header, rows = read_csv(out / "smi_sweep.csv")
        assert header == ["eve_theta_deg", "csb_smi", "asm_smi_0.3", "asm_smi_0.5", "asm_smi_0.7"]
        assert len(rows) == 16
        rx_deg = math.degrees(math.asin(3.0 / 8.0))
        self_rows = [r for r in rows if abs(float(r[0]) - rx_deg) < 1e-9]
        assert len(self_rows) == 1
        # an eavesdropper in the receiver's own cell separates nothing
        assert [float(x) for x in self_rows[0][1:]] == [0.0, 0.0, 0.0, 0.0]

        header_t, rows_t = read_csv(out / "smi_theory.csv")
        assert header_t == ["eve_grid_i", "eve_theta_deg", "g", "eve_bits_max", "smi_floor"]
        assert len(rows_t) == 16
        by_i = {int(r[0]): r for r in rows_t}
        # coprime offsets leak nothing: the floor equals the receiver rate
        assert float(by_i[2][3]) == 0.0
        assert float(by_i[2][4]) > 1.9
        # zero offset resolves every symbol class
        assert float(by_i[3][2]) == 0.0
        assert float(by_i[3][3]) == pytest.approx(2.0)

    def test_reruns_are_bit_identical(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["smi-sweep", "--tiny", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
        assert (out_a / "smi_sweep.csv").read_bytes() == (out_b / "smi_sweep.csv").read_bytes()

    def test_tiny_caps_mi_samples_at_500(self, tmp_path):
        sweeps = []
        for samples in (5000, 500):
            cfg = tmp_path / f"smi{samples}.ini"
            cfg.write_text(f"[array]\nn_t = 8\n[experiment]\nmi_samples = {samples}\n")
            out = tmp_path / f"o{samples}"
            assert main(["smi-sweep", "--tiny", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
            sweeps.append((out / "smi_sweep.csv").read_bytes())
        assert sweeps[0] == sweeps[1]


def test_empty_asm_c_headers_match_rows(tmp_path):
    cfg = tmp_path / "no_asm.ini"
    cfg.write_text("[array]\nn_t = 8\n[experiment]\nasm_c =\nmi_samples = 500\n")
    out = tmp_path / "o"
    for command in ("smi-sweep", "ser"):
        assert main([command, "--tiny", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert names == ["eve_constellation.csv", "rx_snr_penalty.csv", "ser_sweep.csv", "smi_sweep.csv", "smi_theory.csv"]
    for name in names:
        header, rows = read_csv(out / name)
        assert rows and all(len(row) == len(header) for row in rows), name
    assert read_csv(out / "smi_sweep.csv")[0] == ["eve_theta_deg", "csb_smi"]


class TestSerCommand:
    def test_receiver_state_comes_from_the_plan(self, monkeypatch):
        # the planner derives each step's receiver state once; cmd_ser takes
        # the midpoint's from the trajectory instead of deriving it again
        steps = []
        rx_state_at = airspy.rx_state_at

        def spy(scenario, t):
            steps.append(t)
            return rx_state_at(scenario, t)

        monkeypatch.setattr(airspy, "rx_state_at", spy)
        # a binding of its own in cli would bypass the module attribute
        monkeypatch.setattr(cli, "rx_state_at", spy, raising=False)
        cli.cmd_ser(ExperimentConfig(tiny=True, num_symbols=100))
        assert steps == [0, 1, 2, 3]

    def make_config(self, tmp_path):
        cfg = tmp_path / "ser.ini"
        cfg.write_text(
            "[experiment]\n"
            "snr_min_db = 0\n"
            "snr_max_db = 4\n"
            "snr_step_db = 2\n"
            "num_symbols = 1500\n"
        )
        return cfg

    def test_tiny_sweep_files(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "o"
        assert main(["ser", "--tiny", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0

        header, rows = read_csv(out / "ser_sweep.csv")
        assert header == ["snr_db", "defense", "rx_ser", "eve_ser", "trials"]
        defenses = ["none", "csb", "asm-0.3", "asm-0.5", "asm-0.7"]
        assert [r[1] for r in rows] == defenses * 3
        assert {int(r[4]) for r in rows} == {1500}
        for r in rows:
            assert 0.0 <= float(r[2]) <= 1.0
            assert 0.0 <= float(r[3]) <= 1.0
        # shifting is exactly transparent on-grid; at this off-grid receiver
        # direction the quantized codeword leaves a sub-percent wobble
        by_point = {(float(r[0]), r[1]): float(r[2]) for r in rows}
        for snr in (0.0, 2.0, 4.0):
            assert by_point[(snr, "csb")] == pytest.approx(by_point[(snr, "none")], abs=0.05)

        header_p, rows_p = read_csv(out / "rx_snr_penalty.csv")
        assert header_p == ["defense", "rx_snr_delta_db"]
        penalties = {r[0]: float(r[1]) for r in rows_p}
        assert set(penalties) == {"csb", "asm-0.3", "asm-0.5", "asm-0.7"}
        # shifting preserves mean receive power; subset masking forfeits gain
        assert penalties["csb"] > -0.5
        for label in ("asm-0.3", "asm-0.5", "asm-0.7"):
            assert penalties[label] < penalties["csb"] - 1.0

        header_c, rows_c = read_csv(out / "eve_constellation.csv")
        assert header_c == ["re", "im", "true_symbol_index"]
        assert 0 < len(rows_c) <= 10000
        assert {int(r[2]) for r in rows_c} <= {0, 1, 2, 3}
        # the capture is the csb draw at the top SNR point, all 1500 symbols:
        # its nearest-QPSK decisions give that row's eavesdropper SER
        assert len(rows_c) == 1500
        _, decided = equalize_and_detect([complex(float(r[0]), float(r[1])) for r in rows_c], 1.0, 4)
        wrong = np.count_nonzero(decided != [int(r[2]) for r in rows_c])
        eve_by_point = {(float(r[0]), r[1]): float(r[3]) for r in rows}
        assert wrong == round(eve_by_point[(4.0, "csb")] * 1500)


def test_main_holds_openblas_to_one_thread_and_import_does_not(tmp_path):
    get, set_threads = cli._openblas("get_num_threads"), cli._openblas("set_num_threads")
    if get is None or set_threads is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
    set_threads(2)
    assert main(["apn-dist", "--tiny", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert get() == 1
    # a fresh process keeps the thread count OPENBLAS_NUM_THREADS gives it
    # through every csbsim import; OpenBLAS caps that count at the CPUs it
    # sees, so one CPU cannot tell two threads from one
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cpus < 2:
        pytest.skip("one CPU: OpenBLAS starts at one thread whatever the import does")
    child = "import csbsim, csbsim.cli; print(csbsim.cli._openblas('get_num_threads')())"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2"]


@pytest.mark.parametrize("blas_threads", ["2", None], ids=["two", "inherited"])
def test_main_stops_openblas_idle_threads_and_a_second_main_does_not_restart_them(tmp_path, blas_threads):
    # A fresh process at OPENBLAS_NUM_THREADS=2 has OpenBLAS's second thread
    # beside the main one. Each main must leave the process on its one
    # thread: the first stops the idle thread, and the second must not
    # re-pin the count, which would start the pool again. The inherited
    # case starts the child as this process was started: one idle thread
    # per further CPU, or, under OPENBLAS_NUM_THREADS=1, none, where main
    # must start none either.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cpus < 2:
        pytest.skip("one CPU: OpenBLAS starts no second thread")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count threads")
    if cli._openblas("get_num_threads") is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    child = (
        "import os, sys, numpy\n"
        "from csbsim.cli import main\n"
        "for command in ('apn-dist', 'smi-sweep'):\n"
        "    assert main([command, '--tiny', '--seed', '0', '--out', sys.argv[1]]) == 0\n"
        "    print('threads', len(os.listdir('/proc/self/task')))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert [line for line in done.stdout.splitlines() if line.startswith("threads")] == ["threads 1"] * 2


def test_blas_one_thread_sets_before_it_shuts_down_and_leaves_one_thread_alone(monkeypatch):
    # a count of one is left as it is: setting it again would rebuild the
    # pool that the shutdown joined
    calls, count = [], [2]

    def set_threads(n):
        calls.append(("set", n))
        count[0] = n

    fake = {
        "get_num_threads": lambda: count[0],
        "set_num_threads": set_threads,
        "blas_thread_shutdown_": lambda: calls.append(("shutdown",)),
    }
    monkeypatch.setattr(cli, "_openblas", fake.get)
    cli._blas_one_thread()
    cli._blas_one_thread()
    assert calls == [("set", 1), ("shutdown",)]
