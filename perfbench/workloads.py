"""The benchmark's workloads: which csbsim subcommands run, on which config.

Each workload is a sequence of steps, one csbsim subcommand on its own
generated INI config each, run one after another into one output directory.
The array sizes, the angle grid and the planner grid define a step; the
sample counts set its run length. The "mini" shapes are for the self-test
only and are never timed.
"""

from __future__ import annotations

from dataclasses import dataclass

SIZES = ("full", "mini")


@dataclass(frozen=True)
class Step:
    command: str
    full: dict[str, dict[str, str]]
    mini: dict[str, dict[str, str]]

    def ini(self, size: str) -> str:
        """The INI text of the step's config at the given size ("full" or "mini")."""
        sections = self.full if size == "full" else self.mini
        return "\n".join(
            f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
            for section, keys in sections.items()
        )


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]


# The Monte-Carlo symbol path: subset-mask draws and the
# mask-times-weights product over 21 SNR points, at the reference scenario.
_SER_16 = {
    "array": {"n_t": "16", "q": "1"},
    "attack": {"grid_g": "64"},
    "experiment": {
        "m_order": "4", "snr_min_db": "-10", "snr_max_db": "30", "snr_step_db": "2",
        "asm_c": "0.3,0.5,0.7", "num_symbols": "5000",
    },
}
_SER_MINI = {
    "array": {"n_t": "8", "q": "1"},
    "attack": {"grid_g": "16"},
    "experiment": {
        "m_order": "4", "snr_min_db": "-10", "snr_max_db": "30", "snr_step_db": "10",
        "asm_c": "0.3,0.5,0.7", "num_symbols": "1000",
    },
}
# Cost that grows with the array: 4096 shifts per CSB call, the planner's
# per-beam gain table on a 128x128 grid, 3 x 32761-row beam maps, and the
# 4000 x 4096 RX-penalty mask draw that sets peak RSS.
_WIDE = {
    "array": {"n_t": "64", "q": "1"},
    "attack": {"grid_g": "128"},
    "experiment": {
        "m_order": "4", "snr_min_db": "-10", "snr_max_db": "30", "snr_step_db": "10",
        "asm_c": "0.3,0.5,0.7", "num_symbols": "500",
    },
}
_WIDE_MINI = {
    "array": {"n_t": "8", "q": "1"},
    "attack": {"grid_g": "16"},
    "experiment": {
        "m_order": "4", "snr_min_db": "-10", "snr_max_db": "30", "snr_step_db": "10",
        "asm_c": "0.3,0.5,0.7", "num_symbols": "200",
    },
}

WORKLOADS = {
    w.name: w
    for w in (
        # The 16-element reference scenario: first the MI kernel, 181 angles
        # x (CSB, one ASM variant) x (RX, eve) = 724 mixture_mi calls on a
        # linear array, then the SER sweep.
        Workload(
            "smi-ser",
            (
                Step(
                    "smi-sweep",
                    full={
                        "array": {"n_t": "16", "q": "1"},
                        "experiment": {"m_order": "4", "asm_c": "0.5", "mi_samples": "256", "rx_snr_db": "10.0"},
                    },
                    mini={
                        "array": {"n_t": "8", "q": "1"},
                        "experiment": {"m_order": "4", "asm_c": "0.5", "mi_samples": "128", "rx_snr_db": "10.0"},
                    },
                ),
                Step("ser", full=_SER_16, mini=_SER_MINI),
            ),
        ),
        Workload("wide-array", (Step("beam-pattern", _WIDE, _WIDE_MINI), Step("ser", _WIDE, _WIDE_MINI))),
    )
}
