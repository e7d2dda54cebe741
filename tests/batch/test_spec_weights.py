"""A scorer weighs each spec once per request.

``candidate_weight`` depends only on the spec and the request's fixed
``seen`` maps, so the family-batched scorer memoises it: the number of
calls in one recommendation request is at most the number of distinct
specs that request scores, however many candidates share them.
"""

from __future__ import annotations

import repro.batch.scoring as scoring_module


def test_each_spec_is_weighed_once_per_request(
    batch_db_factory, batch_engine_factory, monkeypatch
):
    calls: list[tuple] = []
    weigh = scoring_module.candidate_weight

    def counting(dimension, attribute, *args, **kwargs):
        calls.append((dimension, attribute))
        return weigh(dimension, attribute, *args, **kwargs)

    monkeypatch.setattr(scoring_module, "candidate_weight", counting)
    engine = batch_engine_factory(batch_db_factory(seed=2, name="weightdb"))
    session = engine.session()
    session.step(with_recommendations=False)
    for __ in range(2):
        calls.clear()
        assert session.recommendations(o=3)
        assert calls  # the batched scorer ran
        assert len(calls) == len(set(calls))
