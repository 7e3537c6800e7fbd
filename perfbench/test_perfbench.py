"""Tests of the benchmark itself, on small inputs.

Run from the repository root with ``python -m pytest perfbench``.
"""

import dataclasses
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

workloads = run.import_workloads()

import krylov_echo as ke  # noqa: E402
import tracing  # noqa: E402

COUNT_UNITS = ("count", "B", "evals/step")


def small(name, tmp_path):
    """The named workload with inputs small enough for a test."""
    if name == "evolve-large":
        return workloads.EvolveLarge(1, n_spins=8, t_final=2.0)
    return workloads.CliSweeps(
        1, workdir=tmp_path, goe_dim=128, ising_spins=7, toeplitz_sites=20,
        bounds_points=21, regimes_points=121, toeplitz_points=50, evolve_t_final=5.0,
    )


def outputs_of(workload):
    """Each operation's collected output from one untimed pass."""
    assert workload.build_references() == []
    return {op.name: op.collect(op.run()) for op in workload.operations()}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat(name, tmp_path):
    workload = small(name, tmp_path)
    runner = run.Runner(workload)
    assert workload.build_references() == []
    assert runner.run_pass(measure_memory=True)[1] > 0
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            pass_s, _ = runner.run_pass()
        calls = tracing.layer_calls(tracer.spans)
        assert all(calls.get(layer) for layer in workload.required_layers), calls
        units = run.declared_units("per_layer")
        metrics = tracing.layer_metrics(tracer.spans, pass_s)
        counts.append({k: v for k, v in metrics.items() if units[k] in COUNT_UNITS})
    assert runner.problems == []
    assert counts[0] == counts[1]


def test_tracer_restores_every_binding():
    before = (ke.stepper.lanczos_iterate, ke.cli.write_state, ke.models.IsingOperator.apply)
    with tracing.Tracer():
        assert ke.stepper.lanczos_iterate is not before[0]
        assert ke.cli.write_state is not before[1]
        assert ke.models.IsingOperator.apply is not before[2]
    after = (ke.stepper.lanczos_iterate, ke.cli.write_state, ke.models.IsingOperator.apply)
    assert after == before
    assert ke.stepper.lanczos_iterate is ke.lanczos.lanczos_iterate


def phase_kicked(state):
    kicked = state.copy()
    kicked[: state.size // 2] *= np.exp(0.01j)
    return kicked


def test_evolve_checks_reject_perturbed_reports(tmp_path):
    workload = small("evolve-large", tmp_path)
    for op_name, report in outputs_of(workload).items():
        assert workload.check(op_name, report) == []
        last = report.steps[-1]
        perturbed = {
            "infidelity": dataclasses.replace(report, final_state=phase_kicked(report.final_state)),
            "norm": dataclasses.replace(report, final_state=report.final_state * (1 + 1e-9)),
            "steps cover": dataclasses.replace(
                report, steps=[*report.steps[:-1], dataclasses.replace(last, dt=0.5 * last.dt)]
            ),
            "total_estimated_error": dataclasses.replace(report, total_estimated_error=2e-8),
        }
        for problem, bad in perturbed.items():
            assert any(problem in p for p in workload.check(op_name, bad)), problem


def edit_csv(data: bytes, row: int, column: str, value: str) -> bytes:
    lines = data.decode().split("\n")
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    idx = lines[start].split(",").index(column)
    cells = lines[start + 1 + row].split(",")
    cells[idx] = value
    lines[start + 1 + row] = ",".join(cells)
    return "\n".join(lines).encode()


def test_cli_checks_reject_perturbed_files(tmp_path):
    workload = small("cli-sweeps", tmp_path)
    outputs = outputs_of(workload)
    for op_name, output in outputs.items():
        assert workload.check(op_name, output) == []
    checked = int(workloads._checked_indices(workload.bounds_points)[2])
    kicked_state = bytearray(outputs["sweep.evolve"]["state"])
    state = phase_kicked(np.frombuffer(bytes(kicked_state[13:]), dtype="<c16"))
    kicked_state[13:] = state.astype("<c16").tobytes()
    perturbed = {
        ("sweep.bounds", "oracle at row"): {
            "csv": edit_csv(outputs["sweep.bounds"]["csv"], checked, "oracle", "5.0e-01")
        },
        ("sweep.bounds", "leaves [0, 1]"): {
            "csv": edit_csv(outputs["sweep.bounds"]["csv"], 3, "park_light", "1.5e+00")
        },
        ("sweep.regimes", "echo + error"): {
            "csv": edit_csv(outputs["sweep.regimes"]["csv"], 7, "echo", "9.0e-01")
        },
        ("sweep.toeplitz", "abs_diff"): {
            "csv": edit_csv(outputs["sweep.toeplitz"]["csv"], 4, "abs_diff", "1.0e-06")
        },
        ("sweep.evolve", "infidelity"): {**outputs["sweep.evolve"], "state": bytes(kicked_state)},
    }
    for (op_name, problem), bad in perturbed.items():
        problems = workload.check(op_name, bad)
        assert any(problem in p for p in problems), (problem, problems)
        assert any("differ from the first pass" in p for p in problems)


def test_run_without_program_exits_nonzero(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evolve-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
