"""A run of trials that share one W (every generic and periodic run of more
than one trial: the cached identity bank) demodulates, scales, forms Q and
factors its frames in stacked calls (``ctf._run_frames``), then hands each
trial its (y_tilde, V, eigenvalues) through ``ctf.recover``. Each trial's
stacked frame must be, bit for bit, what ``demodulate``, ``_pow2_scale``,
``compute_q`` and ``frame_from_q`` give it alone (and what the frame of one Q
was before frames were stacked, ``references.eigh_frame``); a failing bank
raises what it raises alone and fails only its own trial; and every trial
still ends in one ``ctf.recover`` call, by which the benchmark's tracer
(``benchmarks/tracer.py``) counts trials."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from references import eigh_frame
from si_subnyq import ctf, experiments
from si_subnyq.errors import InvalidInputError
from si_subnyq.experiments import config_from_json, trial_seed
from si_subnyq.sampling_design import MeasurementBank, compressive_sample

CONFIGS = {
    "mc_small": dict(mode="generic", m=6, k=2, p=4, N=16, trials=24),
    "p_1": dict(mode="generic", m=3, k=1, p=1, N=8, trials=12),
    "N_1": dict(mode="generic", m=10, k=2, p=5, N=1, trials=12, matrix_kind="bernoulli"),
    "N_below_k": dict(mode="generic", m=13, k=4, p=6, N=3, trials=12,
                      matrix_kind="gaussian_real"),
    "periodic": dict(mode="periodic_sparsity", m=12, k=2, p=6, N=8, trials=12,
                     matrix_kind="fourier_rows"),
}


def _run_inputs(cfg):
    """The designs and measurements of ``cfg``'s first run, as ``_run`` makes them."""
    seeds = [trial_seed(cfg.seed, t) for t in range(cfg.trials)]
    instances = experiments._INSTANCES[cfg.mode](cfg, seeds)
    designs = [design for design, *_ in instances]
    assert len({design.W for design in designs}) == 1
    return designs, compressive_sample([bank for _, bank, *_ in instances], designs)


def _lone_frame(y, design, tol):
    """(scale, (y_tilde, V, eigenvalues)) of one bank, step by step."""
    y_tilde = ctf.demodulate(y, design, tol)
    scale = ctf._pow2_scale(y_tilde.sequences)
    q = ctf.compute_q(y_tilde if scale == 1.0 else MeasurementBank(scale * y_tilde.sequences))
    v, eigvals = ctf.frame_from_q(q, tol)
    reference_v, reference_eigvals = eigh_frame(q, tol.rank_rel_tol)
    assert np.array_equal(v, reference_v) and np.array_equal(eigvals, reference_eigvals)
    return scale, (y_tilde, v, eigvals)


def _assert_stacked_frames_equal_lone_frames(ys, design, tol):
    """The scales the banks of ``ys`` take alone, once their stacked frames
    are found equal to their lone ones."""
    scales = []
    for y, (y_tilde, v, eigvals) in zip(ys, ctf._run_frames(ys, design, tol), strict=True):
        scale, (lone_y_tilde, lone_v, lone_eigvals) = _lone_frame(y, design, tol)
        assert np.array_equal(y_tilde.sequences, lone_y_tilde.sequences)
        assert np.array_equal(v, lone_v) and np.array_equal(eigvals, lone_eigvals)
        assert not y_tilde.sequences.flags.writeable
        scales.append(scale)
    return scales


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [5, 6])
def test_stacked_frames_equal_lone_frames(name, seed):
    cfg = config_from_json(dict(CONFIGS[name], seed=seed))
    designs, ys = _run_inputs(cfg)
    scales = _assert_stacked_frames_equal_lone_frames(ys, designs[0], cfg.tolerances)
    assert scales == [1.0] * cfg.trials


def test_stacked_frames_scale_only_the_banks_out_of_range():
    # banks whose peak lies far below 2^-400 or above 2^400 are scaled by a
    # power of two before Q is formed; the others are not
    cfg = config_from_json(dict(CONFIGS["mc_small"], seed=5))
    designs, ys = _run_inputs(cfg)
    factors = [1e-170, 1.0, 1e155, 1.0] * (cfg.trials // 4)
    ys = [MeasurementBank(f * y.sequences) for f, y in zip(factors, ys)]
    scales = _assert_stacked_frames_equal_lone_frames(ys, designs[0], cfg.tolerances)
    assert [s == 1.0 for s in scales] == [f == 1.0 for f in factors]


def _with_nan(y):
    sequences = y.sequences.copy()
    sequences[0, 1] = np.nan
    return MeasurementBank(sequences)


def test_a_nan_bank_raises_as_alone_and_fails_only_its_own_trial(monkeypatch):
    cfg = config_from_json(dict(CONFIGS["mc_small"], seed=5))
    designs, ys = _run_inputs(cfg)
    ys[3] = _with_nan(ys[3])
    with pytest.raises(InvalidInputError) as alone:
        ctf.recover(ys[3], designs[3], k_max=cfg.k, tol=cfg.tolerances)
    with pytest.raises(InvalidInputError) as stacked:
        ctf._run_frames(ys, designs[0], cfg.tolerances)
    assert str(stacked.value) == str(alone.value) == "Q has a NaN or infinite entry"

    clean = experiments.run_trials(cfg)
    sample = experiments.compressive_sample

    def sample_with_a_nan_bank(banks, designs):
        ys = sample(banks, designs)
        ys[3] = _with_nan(ys[3])
        return ys

    monkeypatch.setattr(experiments, "compressive_sample", sample_with_a_nan_bank)
    records = experiments.run_trials(cfg)
    assert [r.trial for r in records if r.error is not None] == [3]
    failed = records[3]
    assert (failed.error, failed.support_found, failed.exact, failed.rank_q) == \
        ("InvalidInputError", (), False, None)
    assert math.isinf(failed.nmse)
    assert (failed.support_true, failed.sigma_a) == (clean[3].support_true, clean[3].sigma_a)
    lines = [line.rsplit(",", 1)[0] for line in experiments.records_to_csv(records).splitlines()]
    clean_lines = [line.rsplit(",", 1)[0]
                   for line in experiments.records_to_csv(clean).splitlines()]
    assert lines[:4] + lines[5:] == clean_lines[:4] + clean_lines[5:]


def _benchmark_tracer():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# whether the config's runs frame their trials together: generic and periodic
# runs of more than one trial do; a multiband run (a W per trial) and a run of
# one (N = 2048 banks fill a run) do not
TRACED_CONFIGS = {
    "generic": (dict(mode="generic", m=6, k=2, p=4, N=16, trials=7), True),
    "periodic_sparsity": (dict(mode="periodic_sparsity", m=12, k=2, p=6, N=8, trials=7), True),
    "multiband": (dict(mode="multiband", m=8, p=4, N=16, trials=3, solver="somp"), False),
    "generic_runs_of_one": (dict(mode="generic", m=8, k=2, p=4, N=2048, trials=3), False),
}


@pytest.mark.parametrize("name", sorted(TRACED_CONFIGS))
def test_every_trial_ends_in_one_recover_call(name):
    doc, stacked = TRACED_CONFIGS[name]
    cfg = config_from_json(dict(doc, seed=3))
    tracer_module = _benchmark_tracer()
    tracer = tracer_module.Tracer()
    with tracer:
        records = experiments.run_trials(cfg)
    assert len(records) == cfg.trials
    assert tracer.calls[tracer_module.TRIAL_END] == tracer.trial == cfg.trials
    for step in ("ctf.demodulate", "ctf.compute_q", "ctf.frame_from_q"):
        assert tracer.calls[step] == (0 if stacked else cfg.trials)
