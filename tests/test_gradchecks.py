import flowdistill as fd
from flowdistill.gradchecks import REL_TOL, gradcheck_battery


def test_gradcheck_battery_passes_at_tiny_dims():
    # Tiny widths keep the coordinate-by-coordinate finite differences to
    # a few seconds; the losses checked are the ones training calls, at one
    # rank and on a block of two.
    dims = fd.NetDims(frames=3, hidden=4, time_dim=4, head_hidden=4, vocab=3)
    results = gradcheck_battery(dims)
    assert [r["name"] for r in results] == [
        "pretrain_eps_mse/base", "pretrain_eps_mse/motion", "distill_mse/motion",
        "disc_conditional/disc", "disc_relaxed/disc",
        "generator_conditional/motion", "generator_relaxed/motion",
        "pretrain_eps_mse/base/2 ranks", "distill_mse/motion/2 ranks",
        "disc_conditional/disc/2 ranks", "disc_relaxed/disc/2 ranks",
        "generator_conditional/motion/2 ranks", "generator_relaxed/motion/2 ranks",
    ]
    for r in results:
        assert r["n_params"] > 0
        assert r["passed"] and r["max_rel_err"] < REL_TOL, r
