import hashlib
import tracemalloc

import numpy as np
import pytest

from groupavg import SizeLimitError, UsageError
from groupavg.errors import MEMORY_CAP_BYTES, TrainingFailureError
from groupavg.experiments import regression as regression_module
from groupavg.experiments import rotation as rotation_module
from groupavg.experiments.mlp import (
    MlpConfig,
    SignAveragedMlp,
    averaged_predictions,
    draw_sign_subsets,
    epoch_csv,
    mlp_experiment,
    subset_csv,
)
from groupavg.experiments.regression import (
    RegressionConfig,
    regression_csv,
    regression_risk,
)
from groupavg.experiments.rotation import (
    RotationDemoConfig,
    averaged_field,
    grid_csv,
    rotation_averaging_demo,
    scalar_field,
    summary_json,
)
from oracles import sgd_step_unrolled


# -- rotation demo ---------------------------------------------------------


def test_rotation_full_subset_distance_zero():
    cfg = RotationDemoConfig(n_rotations=40, grid=50, subset_sizes=(1, 5, 40), seed=11)
    res = rotation_averaging_demo(cfg)
    assert res.rel_l2_to_full[40] == 0.0
    assert res.rel_l2_to_full[5] > 0.0


def test_rotation_full_size_subset_is_the_full_average():
    n = 16
    res = rotation_averaging_demo(RotationDemoConfig(n_rotations=n, grid=21, subset_sizes=(n, 5), seed=4))
    angles = 2.0 * np.pi * np.arange(n) / n
    recomputed = averaged_field(res.xs, res.ys, angles)
    for grid in (res.grids[n], res.full_average):
        assert np.array_equal(grid.view(np.uint64), recomputed.view(np.uint64))
    assert np.array_equal(res.subset_angles[n], angles)
    # the full-size draw is still made, so later sizes see the same stream
    rng = np.random.default_rng(4)
    rng.choice(n, size=n, replace=False)
    assert np.array_equal(res.subset_angles[5], angles[np.sort(rng.choice(n, size=5, replace=False))])


def test_rotation_single_subset_is_rotated_field():
    cfg = RotationDemoConfig(n_rotations=10, grid=30, subset_sizes=(1,), seed=3)
    res = rotation_averaging_demo(cfg)
    theta = res.subset_angles[1][0]
    gx, gy = np.meshgrid(res.xs, res.ys)
    c, s = np.cos(theta), np.sin(theta)
    expect = scalar_field(c * gx + s * gy, -s * gx + c * gy)
    assert np.abs(res.grids[1] - expect).max() == 0.0


def test_rotation_full_average_is_invariant():
    n, grid = 24, 31
    xs = np.linspace(-1, 1, grid)
    ys = np.linspace(-1, 1, grid)
    angles = 2 * np.pi * np.arange(n) / n
    base = averaged_field(xs, ys, angles)
    # querying at group-rotated points only permutes the summed angles
    for k in (1, 7):
        theta = 2 * np.pi * k / n
        c, s = np.cos(theta), np.sin(theta)
        gx, gy = np.meshgrid(xs, ys)
        rx, ry = c * gx + s * gy, -s * gx + c * gy
        rotated = np.zeros_like(base)
        for a in angles:
            ca, sa = np.cos(a), np.sin(a)
            rotated += scalar_field(ca * rx + sa * ry, -sa * rx + ca * ry)
        rotated /= n
        assert np.abs(rotated - base).max() < 1e-12


def test_rotation_qualitative_subset_ordering():
    wins = 0
    for seed in range(30):
        cfg = RotationDemoConfig(n_rotations=100, grid=40, subset_sizes=(1, 5), seed=seed)
        res = rotation_averaging_demo(cfg)
        wins += res.rel_l2_to_full[5] < res.rel_l2_to_full[1]
    assert wins >= 27


def test_rotation_csv_and_summary():
    cfg = RotationDemoConfig(n_rotations=8, grid=5, subset_sizes=(1, 8), seed=0)
    res = rotation_averaging_demo(cfg)
    csv = "".join(grid_csv(res.xs, res.ys, res.grids[8]))
    lines = csv.strip().splitlines()
    assert lines[0] == "x,y,value" and len(lines) == 1 + 25
    summary = summary_json(res)
    assert summary["rel_l2_to_full"]["8"] == 0.0
    with pytest.raises(UsageError):
        RotationDemoConfig(subset_sizes=(200,))


# -- regression ------------------------------------------------------------


def test_regression_noiseless_interpolates():
    cfg = RegressionConfig(group_spec="signflip:2", sigma=0.0, n_samples=64, trials=20, seed=1)
    res = regression_risk(cfg)
    for name in ("erm", "exact", "weak"):
        assert res.risks[name] <= 1e-18


def test_regression_ratio_matches_dimension_count():
    cfg = RegressionConfig(group_spec="signflip:2", sigma=1.0, n_samples=400, trials=800, seed=0)
    res = regression_risk(cfg)
    assert res.m == 4 and res.m_triv == 1
    ratio = res.risks["erm"] / res.risks["exact"]
    assert 3.0 <= ratio <= 5.0
    assert res.risks["weak"] == res.risks["exact"]  # uniform scheme, same matrix


def test_regression_exact_never_worse():
    for spec in ("signflip:2", "cyclic:6"):
        cfg = RegressionConfig(group_spec=spec, sigma=0.5, n_samples=200, trials=1000, seed=3)
        res = regression_risk(cfg)
        assert res.risks["exact"] <= res.risks["erm"] + 2 * res.stderrs["erm"]


def test_regression_weak_scheme_between():
    cfg = RegressionConfig(group_spec="signflip:3", sigma=1.0, n_samples=800, trials=300, eps=0.05, seed=5)
    res = regression_risk(cfg)
    assert res.scheme_eps <= 0.05
    assert res.risks["weak"] <= res.risks["erm"]


def test_regression_usage_errors():
    with pytest.raises(UsageError):
        regression_risk(RegressionConfig(group_spec="cyclic:12", n_samples=6, trials=5))


def test_regression_csv_layout():
    cfg = RegressionConfig(group_spec="signflip:2", sigma=0.0, n_samples=32, trials=3, seed=1)
    csv = regression_csv(regression_risk(cfg))
    lines = csv.strip().splitlines()
    assert lines[0] == "estimator,risk,stderr,m,m_triv,n,sigma,eps"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["erm", "exact", "weak"]


# -- mlp ---------------------------------------------------------------------


def _tiny_cfg(**kw):
    base = dict(
        input_dim=6,
        n_train=512,
        n_test=256,
        widths=(16, 8),
        epochs=3,
        batch_size=64,
        subset_exponents=(0, 2),
        curve_subset_exponent=2,
        epoch_eval_size=128,
        seed=0,
    )
    base.update(kw)
    return MlpConfig(**base)


def test_mlp_identity_subset_equals_plain():
    cfg = _tiny_cfg()
    res = mlp_experiment(cfg)
    model_losses = res.loss_by_subset
    assert set(model_losses) == {1, 4}
    # |S| = 1 pinned to the identity pattern: equals unaveraged evaluation
    subsets = draw_sign_subsets(6, (0,), np.random.default_rng(0))
    assert np.array_equal(subsets[0], np.ones((1, 6)))


def test_mlp_full_group_averaging_is_invariant():
    rng = np.random.default_rng(7)
    model = SignAveragedMlp(4, (12, 6), rng)
    signs = draw_sign_subsets(4, (4,), np.random.default_rng(1))[4]
    assert signs.shape == (16, 4)
    x = rng.normal(size=(20, 4))
    base = averaged_predictions(model, x, signs)
    for row in ((1, -1, 1, -1), (-1, -1, -1, -1)):
        flipped = averaged_predictions(model, x * np.array(row), signs)
        assert np.abs(flipped - base).max() < 1e-10


def test_mlp_averaging_invariant_predictor_unchanged():
    rng = np.random.default_rng(3)
    model = SignAveragedMlp(5, (8, 4), rng)
    x = np.abs(rng.normal(size=(10, 5)))  # evaluate on the positive orthant

    class AbsWrapped:
        def forward(self, z):
            return model.forward(np.abs(z))

    signs = draw_sign_subsets(5, (3,), np.random.default_rng(5))[3]
    averaged = averaged_predictions(AbsWrapped(), x, signs)
    assert np.abs(averaged - model.forward(x)).max() < 1e-12


def test_mlp_training_reduces_loss_and_is_deterministic():
    cfg = _tiny_cfg(epochs=6)
    res1 = mlp_experiment(cfg)
    res2 = mlp_experiment(cfg)
    assert res1.loss_by_subset == res2.loss_by_subset
    assert res1.epoch_losses_plain == res2.epoch_losses_plain
    assert res1.epoch_losses_plain[-1] < res1.epoch_losses_plain[0]


@pytest.mark.parametrize("widths", [(8, 4), (32, 16)])
def test_sgd_step_matches_the_unrolled_step_bit_for_bit(widths):
    models = [SignAveragedMlp(6, widths, np.random.default_rng(3)) for _ in range(2)]
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, y = rng.normal(size=(16, 6)), rng.normal(size=16)
        assert models[0].sgd_step(x, y, 0.05) == sgd_step_unrolled(models[1], x, y, 0.05)
    for got, want in zip(models[0].weights + models[0].biases, models[1].weights + models[1].biases):
        assert got.tobytes() == want.tobytes()


def test_mlp_divergence_raises():
    cfg = _tiny_cfg(learning_rate=1e6, epochs=4)
    with pytest.raises(TrainingFailureError):
        mlp_experiment(cfg)


def test_mlp_csv_layout():
    res = mlp_experiment(_tiny_cfg())
    s_lines = subset_csv(res).strip().splitlines()
    assert s_lines[0] == "subset_size,test_loss"
    e_lines = epoch_csv(res).strip().splitlines()
    assert e_lines[0] == "epoch,test_loss_plain,test_loss_averaged"
    assert len(e_lines) == 1 + res.config.epochs


def test_mlp_config_validation():
    with pytest.raises(UsageError):
        _tiny_cfg(batch_size=10_000)
    with pytest.raises(UsageError):
        _tiny_cfg(subset_exponents=(9,))


def _per_pattern_average(model, x, signs):
    """Reference: predictions summed one sign pattern at a time in groups of
    32 patterns, each group's sum added to the total in order.  Each group's
    predictions come from one forward pass over its flipped inputs, because
    the last bits of a matmul depend on how many rows it is given."""
    n = x.shape[0]
    total = np.zeros(n)
    for start in range(0, signs.shape[0], 32):
        group = signs[start : start + 32]
        preds = model.forward(np.concatenate([x * s for s in group]))
        group_sum = preds[:n].copy()
        for i in range(1, group.shape[0]):
            group_sum += preds[i * n : (i + 1) * n]
        total += group_sum
    return total / signs.shape[0]


def test_averaged_predictions_matches_per_pattern_loop():
    rng = np.random.default_rng(12)
    model = SignAveragedMlp(6, (16, 8), rng)
    x = rng.normal(size=(50, 6))

    class ForwardOnly:
        def forward(self, z):
            return model.forward(np.abs(z))

    for k, n_patterns in ((0, 1), (5, 32), (6, 40), (6, 64)):
        signs = draw_sign_subsets(6, (k,), np.random.default_rng(k))[k][:n_patterns]
        assert signs.shape == (n_patterns, 6)
        for m in (model, ForwardOnly()):
            assert np.array_equal(averaged_predictions(m, x, signs), _per_pattern_average(m, x, signs))


def test_averaged_predictions_memory_does_not_grow_with_the_flipped_batch():
    rng = np.random.default_rng(21)
    model = SignAveragedMlp(8, (32, 16), rng)
    x = rng.normal(size=(5000, 8))
    signs = draw_sign_subsets(8, (5,), np.random.default_rng(2))[5]
    assert signs.shape == (32, 8)  # one chunk
    tracemalloc.start()
    try:
        got = averaged_predictions(model, x, signs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the chunk's predictions (32 x 5000 floats, 1.28 MB) and a few row blocks;
    # the flipped chunk alone takes 10 MB and its first hidden layer 41 MB
    assert peak < 32 * 5000 * 8 + 2_000_000
    # the row blocks keep the bits of one forward pass over the whole chunk
    assert np.array_equal(got, _per_pattern_average(model, x, signs))


# -- artifact bits ------------------------------------------------------------------
# sha256 of artifacts written by the per-trial risk loop, the three-temporary
# MLP forward pass and the per-cell grid formatting that the current batched
# code replaced (numpy 2.4 on OpenBLAS, x86-64); the rewrites keep every bit.


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_mlp_csvs_frozen():
    res = mlp_experiment(
        MlpConfig(input_dim=7, n_train=512, n_test=200, widths=(16, 8), epochs=3, batch_size=64,
                  subset_exponents=(0, 3, 7), curve_subset_exponent=7, epoch_eval_size=100, seed=4)
    )
    assert _sha(subset_csv(res)) == "7aeb85d6fcf6149399003de3a7f85e5596878065a48a0ce2a8a80978e1a4219a"
    assert _sha(epoch_csv(res)) == "a17ad15cef968e83f3b14397d334814cbe05c75ba90d56a54dd48a5d5270dcd2"


@pytest.mark.parametrize(
    "d, eps, digest",
    [
        (2, 0.0, "10d3f3a55626c0696cc69d3ec4592b66d3744eb8bbcc22e5cae4e3c643519d5c"),
        (2, 0.05, "c94daa9a596e4bf76fb652d96f5543ab10da93ff880d5122060291a941aaa432"),
        (3, 0.0, "50d794889395fd00bb2caff93c4d9f8ad571fe3ad9f99b74d319d418d4c11d7c"),
        (3, 0.05, "fa44935d932859ff4dd5393fc1ff6ef3a388a50004ed31745c90f3e38a182205"),
    ],
)
def test_regression_csv_frozen(d, eps, digest):
    cfg = RegressionConfig(group_spec=f"signflip:{d}", sigma=1.0, n_samples=100, trials=300, eps=eps, seed=6)
    assert _sha(regression_csv(regression_risk(cfg))) == digest


class _Allocating(Exception):
    pass


class _NumpyStub:
    """Stands in for numpy inside ``rotation``: any use means the size check passed."""

    def __getattr__(self, name):
        raise _Allocating(name)


def test_figure1_grid_cap_is_a_byte_estimate(monkeypatch):
    cap = MEMORY_CAP_BYTES
    # 72 bytes per cell for the full average and the temporaries, 8 per subset
    assert 4729**2 * 96 <= cap < 4730**2 * 96  # the default three subsets
    assert 5181**2 * 80 <= cap < 5182**2 * 80  # one subset
    with pytest.raises(SizeLimitError, match=f"needs about {4730**2 * 96:,} bytes"):
        RotationDemoConfig(grid=4730)
    with pytest.raises(SizeLimitError, match=f"needs about {5182**2 * 80:,} bytes"):
        RotationDemoConfig(grid=5182, subset_sizes=(1,))
    RotationDemoConfig(grid=5181, subset_sizes=(1,))
    # every grid is built with numpy; without it, a size that passes the
    # check stops at its first allocation
    monkeypatch.setattr(rotation_module, "np", _NumpyStub())
    with pytest.raises(_Allocating):
        rotation_averaging_demo(RotationDemoConfig(grid=4729))


def test_regression_and_mlp_caps_are_byte_estimates(monkeypatch):
    cap = MEMORY_CAP_BYTES
    # mlp: (train + test) * (16 * dim + 8) + test * 280 + 2**max_exponent * 32 * (dim + 1)
    # + 24 * (dim * w1 + w1 * w2 + w2) + (w1 + w2) * max(25 * batch, 8 * max(min(epoch_eval,
    # test), 2048)), here at the default dim 20, 50 000 test inputs, exponents up to 10,
    # widths (128, 64), batch 256 and 2 000 per-epoch inputs
    net = 24 * (20 * 128 + 128 * 64 + 64) + 192 * 8 * 2048
    fixed = 50_000 * (328 + 280) + 2**10 * 32 * 21 + net
    assert 6_442_043 * 328 + fixed <= cap < 6_442_044 * 328 + fixed
    MlpConfig(n_train=6_442_043)
    with pytest.raises(SizeLimitError, match=f"need about {6_442_044 * 328 + fixed:,} bytes"):
        MlpConfig(n_train=6_442_044)
    patterns = 100_000 * 648 + 50_000 * 280 + 2**40 * 32 * 41 + net + 24 * 20 * 128  # dim 40
    with pytest.raises(SizeLimitError, match=f"need about {patterns:,} bytes"):
        MlpConfig(input_dim=40, subset_exponents=(40,), curve_subset_exponent=0)
    # the widths, on 64 + 8 inputs of dim 4 with one sign pattern: weights and
    # the 2048-row forward pass set the first width's boundary
    tiny = dict(input_dim=4, n_train=64, n_test=8, batch_size=16, epochs=1, subset_exponents=(0,),
                curve_subset_exponent=0, epoch_eval_size=8)
    inputs = 72 * 72 + 8 * 280 + 32 * 5
    assert inputs + 24 + 16_384 + 130_117 * 16_504 <= cap < inputs + 24 + 16_384 + 130_118 * 16_504
    MlpConfig(**tiny, widths=(130_117, 1))
    with pytest.raises(SizeLimitError, match=f"need about {inputs + 24 + 16_384 + 130_118 * 16_504:,} bytes"):
        MlpConfig(**tiny, widths=(130_118, 1))
    weights = inputs + 24 * (4 * 128 + 129 * 10**10) + (128 + 10**10) * 8 * 2048
    with pytest.raises(SizeLimitError, match=f"need about {weights:,} bytes"):
        MlpConfig(**tiny, widths=(128, 10**10))
    # one batch of a million rows through 100 000 + 64 hidden units
    batch = (1_000_010 * 328 + 10 * 280 + 2**10 * 32 * 21 + 24 * (84 * 10**5 + 64)
             + (10**5 + 64) * 25 * 10**6)
    with pytest.raises(SizeLimitError, match=f"need about {batch:,} bytes"):
        MlpConfig(n_train=10**6, batch_size=10**6, widths=(10**5, 64), epochs=1, n_test=10)
    # regression: trials * order * 41 + draws * 32, here on signflip:2 (order 4) with 400 draws
    assert 13_094_334 * 164 + 400 * 32 <= cap < 13_094_335 * 164 + 400 * 32
    fits, over = RegressionConfig(trials=13_094_334), RegressionConfig(trials=13_094_335)
    many_draws = RegressionConfig(n_samples=10**12, trials=1)
    # without numpy in `regression`, a study that passes the check stops at its
    # first allocation, so no large study is ever run
    monkeypatch.setattr(regression_module, "np", _NumpyStub())
    with pytest.raises(SizeLimitError, match=f"need about {13_094_335 * 164 + 400 * 32:,} bytes"):
        regression_risk(over)
    with pytest.raises(SizeLimitError, match=f"need about {164 + 32 * 10**12:,} bytes"):
        regression_risk(many_draws)
    with pytest.raises(_Allocating):
        regression_risk(fits)


def test_grid_csv_frozen():
    res = rotation_averaging_demo(RotationDemoConfig(n_rotations=12, grid=9, subset_sizes=(1, 5, 12), seed=2))
    digests = {m: _sha("".join(grid_csv(res.xs, res.ys, res.grids[m]))) for m in (1, 5, 12)}
    assert digests == {
        1: "b4965e233158b5ef8d0520834391b16c4f316a98012d4184b0a21231d5499f05",
        5: "171884beef6f9c6b568ad02a2bbb851b1d4f80869f7509f282ee83f6e58ac751",
        12: "bc482d2094022aba3c4d71c757f43693e389b3a42896695c25c6e4c0536170da",
    }
