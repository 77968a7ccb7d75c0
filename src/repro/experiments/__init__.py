"""Experiment harness: the Figure 6 trace-driven simulation runner,
detection/false-alarm metrics, and regenerators for every table and
figure in the paper's evaluation (Section 4)."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "campaign": ("CampaignResult", "NetworkOutcome", "simulate_campaign"),
    "profiling": ("ProfileTask", "profile_network", "run_profile_campaign"),
    "chaos": (
        "ChaosArm", "ChaosReport", "render_chaos_report", "run_chaos_campaign",
    ),
    "sensitivity": (
        "SensitivityCell", "recommend_parameters", "sweep_parameters",
    ),
    "streaming": ("counts_from_pcaps", "detect_from_pcaps"),
    "export": (
        "attack_report_to_dict", "detection_result_to_dict", "figure_to_dict",
        "save_json", "table_rows_to_dict",
    ),
    "forensics": ("AttackReport", "characterize_attack"),
    "figures": (
        "FigureSeries", "attack_cusum_figure", "dynamics_figure", "figure3",
        "figure4", "figure5", "figure7", "figure8", "figure9",
        "normal_cusum_figure",
    ),
    "metrics": (
        "DetectionPerformance", "FalseAlarmEstimate", "TrialOutcome",
        "aggregate_trials", "estimate_false_alarm_time",
    ),
    "report": (
        "render_comparison", "render_series", "render_table", "sparkline",
    ),
    "runner": (
        "DetectionTrialConfig", "attack_start_range_minutes",
        "run_detection_sweep", "run_detection_trial", "run_normal_operation",
    ),
    "tables": (
        "TABLE2_PAPER", "TABLE3_PAPER", "DetectionTableRow", "detection_table",
        "table1", "table2", "table3",
    ),
})
