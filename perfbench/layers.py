"""Metric definitions, layer attribution and per-layer aggregation.

End-to-end metrics are measured untraced. Every workload reports all of
them, so they are the ones every workload has: set-up time, wall time
of a pass and peak memory. The per-subcommand times
`cmd.<name>_s` and `fail_frac` are printed with them, and reported as
per-layer metrics (from the untraced passes of a traced run), because a
workload that does not run a subcommand has no time for it. These process
times are rescaled for host speed (host.py).

Per-layer metrics come from traced passes (traced.py): each `_s` metric
is a per-pass total over the workload's commands, `cli.import_s` is per
process, and each is the median over the run's traced passes. They are
timed inside the traced process and not rescaled.
"""
from __future__ import annotations

import statistics

from workloads import SUBCOMMANDS

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

COMMAND_METRICS = tuple((f"cmd.{sub}_s", "s", "lower") for sub in SUBCOMMANDS)

LAYER_METRICS = (
    ("numth.recover_calls", "count", "lower"),
    ("numth.recover_s", "s", "lower"),
    ("numth.recover_hit_frac", "frac", "lower"),
    ("errmodel.draws", "count", "lower"),
    ("errmodel.sample_s", "s", "lower"),
    ("errmodel.draws_per_s", "1/s", "higher"),
    ("spectrum.direct_calls", "count", "lower"),
    ("spectrum.fft_points", "count", "lower"),
    ("spectrum.direct_s", "s", "lower"),
    ("spectrum.closed_form_s", "s", "lower"),
    ("spectrum.closed_form_fallbacks", "count", "lower"),
    ("spectrum.csv_rows", "count", "lower"),
    ("spectrum.csv_write_s", "s", "lower"),
    ("qcircuit.gates", "count", "lower"),
    ("qcircuit.gate_s", "s", "lower"),
    ("qcircuit.bytes_computed", "B", "lower"),
    ("qcircuit.permute_s", "s", "lower"),
    ("qcircuit.prepare_s", "s", "lower"),
    ("qcircuit.sample_s", "s", "lower"),
    ("qcircuit.shots", "count", "lower"),
    ("experiment.mask_s", "s", "lower"),
    ("experiment.mask_entries", "count", "lower"),
    ("experiment.mask_hit_frac", "frac", "lower"),
    ("experiment.success_warm_s", "s", "lower"),
    ("experiment.peak_report_s", "s", "lower"),
    ("experiment.peaks_found", "count", "lower"),
    ("experiment.loop_self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

# Known defects, reported and never gated (0 where the workload lacks the
# command; a sweep threshold of -1 means none).
DIAGNOSTICS = (
    ("diag.route_tvd", "frac", "lower"),
    ("diag.sweep_systematic_baseline", "frac", "lower"),
    ("diag.sweep_systematic_threshold", "rad", "higher"),
    ("diag.sweep_gaussian_baseline", "frac", "higher"),
    ("diag.sweep_gaussian_threshold", "rad", "higher"),
    ("diag.mask_hit_frac_bound64", "frac", "lower"),
    ("diag.mask_hit_frac_bound1", "frac", "lower"),
)

PER_LAYER = COMMAND_METRICS + (("fail_frac", "frac", "lower"),) + LAYER_METRICS + DIAGNOSTICS

# Which end-to-end time each layer's metrics should move, on which
# workload, and where the prediction is no change. cmd.<sub>_s is the
# part of the gated wall_s of that workload spent in that subcommand.
ATTRIBUTION = (
    {
        "layer": "numth",
        "metrics": ("numth.recover_calls", "numth.recover_s", "numth.recover_hit_frac"),
        "moves": (("cmd.sweep_s", "sweep"), ("cmd.factor_s", "readout")),
        "flat": ("ensemble",),
    },
    {
        "layer": "errmodel",
        "metrics": ("errmodel.draws", "errmodel.sample_s", "errmodel.draws_per_s"),
        "moves": (("cmd.ensemble_s", "ensemble"), ("cmd.sweep_s", "sweep")),
        "flat": ("readout",),
    },
    {
        "layer": "spectrum",
        "metrics": ("spectrum.direct_calls", "spectrum.fft_points", "spectrum.direct_s"),
        "moves": (("cmd.ensemble_s", "ensemble"), ("cmd.sweep_s", "sweep")),
        "flat": (),
    },
    {
        "layer": "spectrum",
        "metrics": (
            "spectrum.closed_form_s",
            "spectrum.closed_form_fallbacks",
            "spectrum.csv_rows",
            "spectrum.csv_write_s",
        ),
        "moves": (("cmd.spectrum_s", "readout"), ("cmd.circuit_s", "readout")),
        "flat": ("sweep",),
    },
    {
        "layer": "qcircuit",
        "metrics": (
            "qcircuit.gates",
            "qcircuit.gate_s",
            "qcircuit.bytes_computed",
            "qcircuit.permute_s",
            "qcircuit.prepare_s",
            "qcircuit.sample_s",
            "qcircuit.shots",
        ),
        "moves": (("cmd.circuit_s", "readout"), ("cmd.factor_s", "readout")),
        "flat": ("ensemble", "sweep"),
    },
    {
        "layer": "experiment",
        "metrics": (
            "experiment.mask_s",
            "experiment.mask_entries",
            "experiment.mask_hit_frac",
            "experiment.success_warm_s",
        ),
        "moves": (("cmd.sweep_s", "sweep"),),
        "flat": ("readout", "ensemble"),
    },
    {
        "layer": "experiment",
        "metrics": ("experiment.peak_report_s", "experiment.peaks_found"),
        "moves": (("cmd.spectrum_s", "readout"),),
        "flat": ("sweep",),
    },
    {
        "layer": "experiment",
        "metrics": ("experiment.loop_self_s",),
        "moves": (("cmd.ensemble_s", "ensemble"),),
        "flat": ("readout",),
    },
    {
        "layer": "cli",
        "metrics": ("cli.import_s", "cli.self_s"),
        "moves": (("setup_s", "readout"), ("setup_s", "ensemble"), ("setup_s", "sweep")),
        "flat": (),
    },
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its commands' trace files."""
    calls: dict[str, float] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    counters: dict[str, float] = {}
    for trace in traces:
        for name, (n, t, s) in trace["functions"].items():
            calls[name] = calls.get(name, 0) + n
            total[name] = total.get(name, 0.0) + t
            self_time[name] = self_time.get(name, 0.0) + s
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0.0) + value

    def count(name: str) -> float:
        return counters.get(name, 0.0)

    def seconds(*names: str) -> float:
        return sum(total.get(name, 0.0) for name in names)

    recover_calls = calls.get("numth.recover_order", 0)
    draws = count("errmodel.draws")
    sample_s = seconds("errmodel.sample_phase_errors", "errmodel.sample_amplitude_errors")
    return {
        "numth.recover_calls": recover_calls,
        "numth.recover_s": seconds("numth.recover_order"),
        "numth.recover_hit_frac": _ratio(count("numth.recover_hits"), recover_calls),
        "errmodel.draws": draws,
        "errmodel.sample_s": sample_s,
        "errmodel.draws_per_s": _ratio(draws, sample_s),
        "spectrum.direct_calls": calls.get("spectrum.direct_spectrum", 0),
        "spectrum.fft_points": count("spectrum.fft_points"),
        "spectrum.direct_s": seconds("spectrum.direct_spectrum"),
        "spectrum.closed_form_s": seconds("spectrum.systematic_spectrum_closed_form"),
        "spectrum.closed_form_fallbacks": calls.get("spectrum._direct_value_at", 0),
        "spectrum.csv_rows": count("spectrum.csv_rows"),
        "spectrum.csv_write_s": seconds("spectrum.write_spectrum_csv"),
        "qcircuit.gates": count("qcircuit.gates"),
        "qcircuit.gate_s": seconds(
            "qcircuit.apply_hadamard_noisy", "qcircuit.apply_controlled_phase_noisy"
        ),
        "qcircuit.bytes_computed": count("qcircuit.bytes_computed"),
        "qcircuit.permute_s": self_time.get("qcircuit.qft_noisy", 0.0),
        "qcircuit.prepare_s": seconds("qcircuit.prepare_period_state"),
        "qcircuit.sample_s": seconds("qcircuit.sample_outcomes", "qcircuit.measure_all"),
        "qcircuit.shots": count("qcircuit.shots"),
        "experiment.mask_s": count("experiment.mask_s"),
        "experiment.mask_entries": count("experiment.mask_entries"),
        "experiment.mask_hit_frac": _ratio(
            count("experiment.mask_hits"), count("experiment.mask_entries")
        ),
        "experiment.success_warm_s": count("experiment.success_warm_s"),
        "experiment.peak_report_s": seconds("experiment.peak_report"),
        "experiment.peaks_found": count("experiment.peaks_found"),
        "experiment.loop_self_s": self_time.get("experiment.ensemble_spectrum", 0.0)
        + self_time.get("experiment.threshold_sweep", 0.0),
        "cli.import_s": statistics.median(trace["import_s"] for trace in traces),
        "cli.self_s": sum(trace["main_self_s"] for trace in traces),
    }


def mask_hit_fracs(traces: list[dict]) -> dict[str, float]:
    """Recovery-mask hit fraction per multiplier bound used in the sweep."""
    fracs = {}
    for trace in traces:
        for mask in trace["masks"]:
            fracs[mask["bound"]] = mask["hits"] / mask["q"]
    return {
        "diag.mask_hit_frac_bound64": fracs.get(64, 0.0),
        "diag.mask_hit_frac_bound1": fracs.get(1, 0.0),
    }
