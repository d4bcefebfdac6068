"""End-to-end tests for the csbsim command line.

Each run is driven through ``main(argv)`` with a throwaway output directory.
Determinism contracts are checked at the byte level: the same config and
seed must reproduce identical CSV files.
"""

import dataclasses
import math
import os

import numpy as np
import pytest

from csbsim.cli import ConfigError, ExperimentConfig, dump_config, load_config, main
from csbsim.csb_defense import apn_law


def read_csv(path):
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigFile:
    def test_defaults_without_file(self):
        assert load_config(None) == ExperimentConfig()

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
        "command,text",
        [
            ("attack", "[scenario]\nh = nan\n"),
            ("attack", "[scenario]\nt_s = inf\n"),
            ("attack", "[attack]\nv_max = inf\n"),
            ("beam-pattern", "[array]\nn_t = 7\n"),
            ("apn-dist", "[array]\nn_t = 7\n"),
            ("beam-pattern", "[array]\nq = 0\n"),
            ("ser", "[array]\nn_rows = 3\n"),
            ("smi-sweep", "[experiment]\nasm_c = 0.001\n"),
            ("ser", "[experiment]\nasm_c = 0.3,nan\n"),
        ],
    )
    def test_bad_config_is_one_line_config_error(self, tmp_path, capsys, command, text):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        code = main([command, "--tiny", "--config", str(bad), "--seed", "0", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:"), err

    def test_success_returns_0_and_prints_paths(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["apn-dist", "--seed", "0", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(out / "apn_dist.csv")]
        assert os.path.exists(printed[0])


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


class TestSerCommand:
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
