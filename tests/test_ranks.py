import pytest

import flowdistill as fd
from flowdistill.ranks import DEFAULT_RANK_TABLE


def test_default_assignment_mirrors_table():
    table = fd.build_assignment()
    assert len(table) == 8
    assert [r.style for r in table] == [
        "default", "default", "real_a", "real_b",
        "anime_a", "anime_a", "anime_b", "anime_c",
    ]
    assert [r.dataset for r in table][:2] == ["real", "real"]
    assert {r.dataset for r in table[2:4]} == {"gen_realistic"}
    assert {r.dataset for r in table[4:]} == {"gen_anime"}


def test_duplicate_rank_ids_rejected():
    rows = [dict(DEFAULT_RANK_TABLE[0]), dict(DEFAULT_RANK_TABLE[0])]
    with pytest.raises(ValueError, match="duplicate"):
        fd.build_assignment(rows)


def test_empty_table_rejected():
    with pytest.raises(ValueError, match="at least one rank"):
        fd.build_assignment([])


def test_unknown_and_unseen_styles_rejected():
    with pytest.raises(KeyError):
        fd.build_assignment([{"rank": 0, "style": "mystery", "dataset": "real"}])
    with pytest.raises(ValueError, match="unseen"):
        fd.build_assignment([{"rank": 0, "style": "unseen_far", "dataset": "real"}])
    with pytest.raises(ValueError, match="dataset"):
        fd.build_assignment([{"rank": 0, "style": "default", "dataset": "wat"}],
                            known_datasets={"real"})


def test_effective_batch_arithmetic():
    # ranks x micro_batch x accumulation = samples per update
    table = fd.build_assignment(DEFAULT_RANK_TABLE[:4])
    micro_batch, accum = 16, 4
    assert len(table) * micro_batch * accum == 256
