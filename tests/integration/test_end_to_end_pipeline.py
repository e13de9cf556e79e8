"""The full research pipeline, end to end, through the public API only:

generate traces -> persist to disk -> reload -> run the experiment
matrix -> persist results -> reload -> render reports and SVG.

This is the workflow a downstream user runs; every hand-off between
subsystems is exercised and checked for consistency.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    load_result_set_csv,
    render_cdf_svg,
    render_result_set,
    run_matrix,
    save_result_set_csv,
    save_svg,
)
from repro.abr import create
from repro.traces import load_dataset, make_generator, save_dataset
from repro.video import envivio


def test_full_pipeline(tmp_path):
    manifest = envivio()

    # 1. Generate and persist a dataset.
    generator = make_generator("synthetic", seed=11)
    traces = generator.generate_many(4, manifest.total_duration_s + 60.0)
    save_dataset(traces, tmp_path / "traces")

    # 2. Reload — the persisted traces must be behaviourally identical.
    loaded = load_dataset(tmp_path / "traces")
    assert len(loaded) == 4
    for original, reloaded in zip(traces, loaded):
        assert reloaded.mean_kbps() == pytest.approx(original.mean_kbps())

    # 3. Run the matrix.
    names = ["rb", "bb"]
    serial = run_matrix(
        {name: create(name) for name in names}, loaded, manifest,
        dataset="e2e",
    )

    # 4. Persist results, reload, and verify the aggregate views agree.
    results_path = tmp_path / "results.csv"
    save_result_set_csv(serial, results_path)
    reloaded_results = load_result_set_csv(results_path)
    for name in names:
        assert reloaded_results.median_n_qoe(name) == pytest.approx(
            serial.median_n_qoe(name)
        )

    # 5. Render the human-facing artifacts.
    report = render_result_set(reloaded_results)
    assert "rb" in report and "median" in report
    svg_path = save_svg(
        render_cdf_svg(
            {name: reloaded_results.n_qoe_values(name) for name in names},
            title="end-to-end",
            x_label="n-QoE",
        ),
        tmp_path / "figure.svg",
    )
    assert svg_path.read_text().count("<polyline") == len(names)
